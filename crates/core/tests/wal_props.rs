//! Property tests for the WAL record codec and recovery, following the
//! repo's deterministic SplitMix64 loop convention (no proptest): a
//! fixed seed drives many random cases, every case prints enough to
//! reproduce on failure.

use semtm_core::util::SplitMix64;
use semtm_core::wal::{crc32, encode_record, read_records, replay, StopReason};
use semtm_core::{Addr, Heap};

const HEAP_WORDS: usize = 1 << 10;

/// A random stream of records over a small heap, plus its encoding.
fn random_log(rng: &mut SplitMix64, max_records: usize) -> (Vec<Vec<(u32, i64)>>, Vec<u8>) {
    let n = rng.index(max_records + 1);
    let mut originals = Vec::with_capacity(n);
    let mut bytes = Vec::new();
    for seq in 1..=n as u64 {
        let count = rng.index(17);
        let writes: Vec<(u32, i64)> = (0..count)
            .map(|_| (rng.index(HEAP_WORDS) as u32, rng.next_u64() as i64))
            .collect();
        let addrs: Vec<(Addr, i64)> = writes
            .iter()
            .map(|&(a, v)| (Addr::from_index(a as usize), v))
            .collect();
        encode_record(&mut bytes, seq, &addrs);
        originals.push(writes);
    }
    (originals, bytes)
}

#[test]
fn roundtrip_random_record_streams() {
    let mut rng = SplitMix64::new(0xD00D_F00D);
    for case in 0..200 {
        let (originals, bytes) = random_log(&mut rng, 24);
        let (records, consumed, stop) = read_records(&bytes);
        assert_eq!(stop, StopReason::CleanEnd, "case {case}");
        assert_eq!(consumed, bytes.len(), "case {case}");
        assert_eq!(records.len(), originals.len(), "case {case}");
        for (i, (rec, orig)) in records.iter().zip(&originals).enumerate() {
            assert_eq!(rec.seq, (i + 1) as u64, "case {case} record {i}");
            assert_eq!(&rec.writes, orig, "case {case} record {i}");
        }
    }
}

#[test]
fn replay_twice_yields_identical_heap() {
    let mut rng = SplitMix64::new(0xABAD_1DEA);
    for case in 0..100 {
        let (_, bytes) = random_log(&mut rng, 24);
        let heap = Heap::new(HEAP_WORDS);
        let r1 = replay(&bytes, &heap);
        let snap1: Vec<i64> = (0..HEAP_WORDS)
            .map(|i| heap.load(Addr::from_index(i)))
            .collect();
        let r2 = replay(&bytes, &heap);
        let snap2: Vec<i64> = (0..HEAP_WORDS)
            .map(|i| heap.load(Addr::from_index(i)))
            .collect();
        assert_eq!(r1.records, r2.records, "case {case}");
        assert_eq!(r1.last_seq, r2.last_seq, "case {case}");
        assert_eq!(snap1, snap2, "case {case}: replay must be idempotent");
        // And replaying into a second fresh heap matches too.
        let heap2 = Heap::new(HEAP_WORDS);
        replay(&bytes, &heap2);
        let snap3: Vec<i64> = (0..HEAP_WORDS)
            .map(|i| heap2.load(Addr::from_index(i)))
            .collect();
        assert_eq!(snap1, snap3, "case {case}: replay must be deterministic");
    }
}

#[test]
fn truncation_at_every_offset_recovers_a_prefix() {
    let mut rng = SplitMix64::new(0x7EA5_0FF5);
    let (originals, bytes) = random_log(&mut rng, 8);
    assert!(!bytes.is_empty());
    for cut in 0..=bytes.len() {
        let (records, consumed, stop) = read_records(&bytes[..cut]);
        assert!(consumed <= cut, "cut {cut}");
        assert!(
            stop.is_tail() || stop == StopReason::BadCrc,
            "cut {cut}: truncation may tear or corrupt the tail record, \
             never anything stronger ({stop:?})"
        );
        assert!(records.len() <= originals.len(), "cut {cut}");
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.writes, originals[i], "cut {cut} record {i}");
        }
        if cut == bytes.len() {
            assert_eq!(stop, StopReason::CleanEnd);
            assert_eq!(records.len(), originals.len());
        }
    }
}

#[test]
fn random_truncation_fuzz() {
    let mut rng = SplitMix64::new(0x5EED_CAFE);
    for case in 0..300 {
        let (originals, bytes) = random_log(&mut rng, 16);
        if bytes.is_empty() {
            continue;
        }
        let cut = rng.index(bytes.len());
        let (records, _, _) = read_records(&bytes[..cut]);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.writes, originals[i], "case {case} cut {cut} record {i}");
        }
    }
}

#[test]
fn byte_flip_fuzz_stops_at_last_valid_record() {
    let mut rng = SplitMix64::new(0xF1B0_0B1E);
    for case in 0..300 {
        let (originals, mut bytes) = random_log(&mut rng, 12);
        if bytes.is_empty() {
            continue;
        }
        let pos = rng.index(bytes.len());
        let bit = 1u8 << rng.index(8);
        bytes[pos] ^= bit;
        // Must not panic, and every record it does return must match an
        // original prefix exactly (a flipped byte can only truncate the
        // recovery, never fabricate or alter a record — CRC + contiguous
        // seqs guarantee it with overwhelming probability).
        let (records, consumed, stop) = read_records(&bytes);
        assert!(consumed <= bytes.len(), "case {case} pos {pos}");
        assert!(records.len() <= originals.len(), "case {case} pos {pos}");
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(
                rec.writes, originals[i],
                "case {case} pos {pos}: corrupted log replayed garbage"
            );
        }
        // Replaying the corrupted log into a heap must also be safe.
        let heap = Heap::new(HEAP_WORDS);
        let report = replay(&bytes, &heap);
        assert_eq!(report.records as usize, records.len(), "case {case}");
        assert_eq!(report.bytes_consumed, consumed, "case {case}");
        assert_eq!(report.stopped, stop, "case {case}");
    }
}

#[test]
fn garbage_input_never_panics() {
    let mut rng = SplitMix64::new(0x6A5B_A6E5);
    for _ in 0..500 {
        let len = rng.index(200);
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let (records, consumed, _stop) = read_records(&garbage);
        assert!(consumed <= garbage.len());
        // Random bytes essentially never form a CRC-valid seq-1 record.
        assert!(records.len() <= 1);
    }
}

/// The plain bytewise IEEE CRC-32 (reflected, polynomial 0xEDB88320):
/// the reference `crc32`'s slicing-by-8 must equal bit for bit, so logs
/// written by either stay readable.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[test]
fn sliced_crc_equals_bytewise_reference() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    let mut rng = SplitMix64::new(0xC3C3_2B8E);
    let buf: Vec<u8> = (0..1024 + 8).map(|_| rng.next_u64() as u8).collect();
    for start in 0..8 {
        for len in 0..=1024 {
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "start {start} len {len}"
            );
        }
    }
}
