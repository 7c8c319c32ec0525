//! The workspace's one integer hasher, its one integer mixer, and its one
//! stable fingerprint hash.
//!
//! Lives in the lowest crate so the Q-Store and baseline replica tables
//! (`qrdtm_core` re-exports these names; QR's own table is a dense row per
//! id) share one implementation and one spread test, every crate that
//! spreads keys by hand (TFA's home nodes, the workloads' buckets, tower
//! heights and populate orders) shares [`mix`], and every fingerprint that is
//! compared or written down (the model checker's outcome fingerprints and
//! schedule keys, the golden digests, the chaos tests' event-stream hash)
//! shares [`fnv`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for tables keyed by small integer ids (object ids, transaction
/// ids): one folded 64x64 -> 128-bit multiply per word. A replica table is
/// probed on every request at every quorum member; under SipHash the
/// hashing was most of that cost.
///
/// Folding the high product half into the low one is what lets ids that
/// differ only in high bits (`table << 32 | row`) still differ in the low
/// bits a hash table indexes by; a plain multiply would not. The keys are
/// minted by this program (workload generators, per-node sequence
/// numbers), never taken from outside it, so losing SipHash's resistance
/// to crafted collisions costs nothing. The function is fixed, but nothing
/// may come to depend on the iteration order it induces: exports sort.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    /// 2^64 / golden ratio, odd: sequential ids map to distinct low bits.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn fold(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * u128::from(Self::K);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn finish(&self) -> u64 {
        // Every word was folded on the way in, so both ends of the state —
        // the table takes its bucket from the low bits and its tag from the
        // top seven — already depend on every key bit.
        self.0
    }
}

/// A hash map keyed by an integer id through [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// SplitMix64's finalizer: a cheap, well-mixed stateless hash of one word.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// FNV-1a over 64-bit words, each fed as its eight little-endian bytes:
/// stable across runs and toolchains, unlike `DefaultHasher`.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Distinct values among the low 10 bits of the ids' hashes: what a
    /// 1 024-bucket table would index by. Uniformly random hashes would
    /// reach about 647 of 1 024.
    fn low_bits_reached<K: std::hash::Hash>(ids: impl Iterator<Item = K>) -> usize {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        let low: HashSet<u64> = ids.map(|id| build.hash_one(id) & 0x3ff).collect();
        low.len()
    }

    #[test]
    fn id_hasher_spreads_ids_over_the_low_bits() {
        // One-word ids: object ids.
        let sequential = low_bits_reached(0..1024u64);
        assert!(sequential >= 512, "sequential ids: {sequential}");
        // `table << 32 | row` ids of different tables, same row: only the
        // high half differs, which a plain multiply would leave there.
        let strided = low_bits_reached((0..1024u64).map(|i| i << 32));
        assert!(strided >= 512, "ids spaced 2^32: {strided}");
        // Two-word `(node: u32, seq: u64)` ids, hashed field by field the
        // way a derived `Hash` on a transaction id does.
        let grid = |nodes: u32, seqs: u64| {
            low_bits_reached((0..nodes).flat_map(move |node| (0..seqs).map(move |seq| (node, seq))))
        };
        for (nodes, seqs) in [(32, 32), (4, 256), (256, 4)] {
            let reached = grid(nodes, seqs);
            assert!(reached >= 512, "{nodes} nodes x {seqs} seqs: {reached}");
        }
    }
}
