//! In-memory hashing of complex objects: the one hasher, the one
//! hash-table layout, and the row set built from them.
//!
//! Two hashes of a value exist, for two jobs, under one hasher.
//! `impl Hash for Value` feeds **any** hasher a byte stream that never
//! changes; [`crate::Record::structural_hash`] is that stream's digest
//! under [`ValueHasher`], computed once per row and remembered. In-memory
//! tables bucket by the plain [`ValueHasher`] hash: one multiply-rotate
//! per word and a finishing mix, a fixed key so iteration orders and chain
//! shapes repeat across runs. Spill partitioning hashes
//! the same values under the same hasher with a **per-level seed written
//! first** (`tmql_exec::op::spill::seed_hasher`) — join keys in place in
//! their row, a whole row as the seed mixed with its remembered hash — so
//! which partition a row lands in (and every exact spill counter) is a
//! function of the data and the seed alone, and the bucket a row takes in
//! its partition's table, which the unseeded hash picks, is not tied to
//! the partition it came from. A fixed key gives no protection against
//! keys crafted to collide; nor did the fixed-key SipHash both jobs once
//! ran under, and a collision costs a longer chain or a partition that is
//! re-split, never a wrong answer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::record::Record;

/// The hasher of in-memory hash sets and maps of values (FxHash's word
/// step, plus a finishing mix so the low bits that pick a bucket depend
/// on every input bit).
#[derive(Debug, Default, Clone, Copy)]
pub struct ValueHasher(u64);

impl Hasher for ValueHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            // Byte 7 is free (`rest` is at most 7 long): it takes the length.
            w[7] = rest.len() as u8;
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    // A value's rank, a string's terminator and a length arrive through
    // these two; the default bodies would route them through `write`.
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    }
}

/// A `HashMap` of values under [`ValueHasher`].
pub type ValueMap<K, V> = HashMap<K, V, BuildHasherDefault<ValueHasher>>;

/// End of a chain.
const NIL: u32 = u32::MAX;

/// The hash-table layout of the engine: positions `0..len` of some row
/// vector the caller owns, chained per bucket through one `Vec<u32>`.
/// Nothing is allocated per position, the caller keeps hashes and keys
/// where it likes (a [`RecordSet`] in the rows themselves, the hash join
/// in one `Vec<u64>`), and every chain lists its positions in ascending
/// order — candidates come back in insertion order.
#[derive(Debug, Clone, Default)]
pub struct ChainIndex {
    /// First position of each bucket's chain; a power of two long.
    heads: Vec<u32>,
    /// Next position in the chain of position `i`.
    next: Vec<u32>,
}

impl ChainIndex {
    /// Index the positions `0..hashes.len()` at once.
    pub fn build(hashes: &[u64]) -> ChainIndex {
        let mut index = ChainIndex {
            heads: Vec::new(),
            next: vec![NIL; hashes.len()],
        };
        index.relink(hashes.len(), |i| hashes[i]);
        index
    }

    /// Index the next position under `hash`. When the table grows,
    /// `hash_at` re-supplies the hash of each position already stored.
    pub fn push(&mut self, hash: u64, hash_at: impl Fn(usize) -> u64) {
        let pos = self.next.len();
        if pos >= self.heads.len() {
            self.relink(pos + 1, hash_at);
        }
        let last = self.chain(hash).last();
        self.next.push(NIL);
        match last {
            Some(tail) => self.next[tail] = pos as u32,
            None => {
                let b = self.bucket(hash);
                self.heads[b] = pos as u32;
            }
        }
    }

    /// The stored positions that share `hash`'s bucket, ascending. The
    /// caller filters them by hash and key.
    pub fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let first = match self.heads.is_empty() {
            true => NIL,
            false => self.heads[self.bucket(hash)],
        };
        std::iter::successors((first != NIL).then_some(first as usize), |&i| {
            let n = self.next[i];
            (n != NIL).then_some(n as usize)
        })
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// Size the buckets for `capacity` positions (load ≤ 1) and rebuild
    /// the chains of the positions stored so far, last first so each
    /// chain ends up ascending.
    fn relink(&mut self, capacity: usize, hash_at: impl Fn(usize) -> u64) {
        assert!(
            capacity < NIL as usize,
            "a hash table holds fewer than 2^32 - 1 rows"
        );
        let buckets = capacity.next_power_of_two().max(8);
        self.heads.clear();
        self.heads.resize(buckets, NIL);
        for i in (0..self.next.len()).rev() {
            let b = self.bucket(hash_at(i));
            self.next[i] = self.heads[b];
            self.heads[b] = i as u32;
        }
    }
}

/// A duplicate-free list of rows in insertion order with hashed
/// membership: dedup state, a table's extension. It holds handles to the
/// rows' shared bodies, not copies; membership goes through each row's
/// remembered [`Record::structural_hash`], so growing the table re-walks
/// no row; and iteration is insertion order — the same in every run.
#[derive(Debug, Clone, Default)]
pub struct RecordSet {
    rows: Vec<Record>,
    index: ChainIndex,
}

impl RecordSet {
    /// Add `row` unless an equal row is present; true iff it was added.
    pub fn insert(&mut self, row: Record) -> bool {
        if self.contains(&row) {
            return false;
        }
        let rows = &self.rows;
        self.index
            .push(row.structural_hash(), |i| rows[i].structural_hash());
        self.rows.push(row);
        true
    }

    /// True iff a row equal to `row` is present.
    pub fn contains(&self, row: &Record) -> bool {
        // `Record::eq` compares the remembered hashes before the fields.
        self.index
            .chain(row.structural_hash())
            .any(|i| self.rows[i] == *row)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in insertion order.
    pub fn as_slice(&self) -> &[Record] {
        &self.rows
    }

    /// The rows, in insertion order, without the index.
    pub fn into_rows(self) -> Vec<Record> {
        self.rows
    }

    /// Remove every row.
    pub fn clear(&mut self) {
        *self = RecordSet::default();
    }
}

impl PartialEq for RecordSet {
    /// Set equality: the same rows in any order.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.rows.iter().all(|r| other.contains(r))
    }
}

impl Eq for RecordSet {}

impl FromIterator<Record> for RecordSet {
    fn from_iter<T: IntoIterator<Item = Record>>(iter: T) -> Self {
        let mut set = RecordSet::default();
        for row in iter {
            set.insert(row);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use std::hash::Hash;

    fn hash_one(v: &impl Hash) -> u64 {
        let mut h = ValueHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    fn row(i: i64) -> Record {
        Record::new([("k", Value::Int(i % 7)), ("v", Value::Int(i))]).unwrap()
    }

    #[test]
    fn chains_list_positions_ascending_built_or_pushed() {
        // Few distinct hashes: long chains, several per bucket.
        let hashes: Vec<u64> = (0..500u64).map(|i| hash_one(&(i % 13))).collect();
        let built = ChainIndex::build(&hashes);
        let mut pushed = ChainIndex::default();
        for &h in &hashes {
            pushed.push(h, |i| hashes[i]);
        }
        for index in [&built, &pushed] {
            for k in 0..13u64 {
                let h = hash_one(&k);
                let hits: Vec<usize> = index.chain(h).filter(|&i| hashes[i] == h).collect();
                let expect: Vec<usize> = (0..500).filter(|i| i % 13 == k as usize).collect();
                assert_eq!(hits, expect);
            }
        }
        assert_eq!(ChainIndex::default().chain(7).count(), 0);
    }

    #[test]
    fn record_set_keeps_first_occurrences_in_insertion_order() {
        let mut set = RecordSet::default();
        for (n, i) in (0..300).chain(0..300).enumerate() {
            assert_eq!(set.insert(row(i)), n < 300, "insert #{n}");
        }
        assert_eq!(set.as_slice(), (0..300).map(row).collect::<Vec<_>>());
        assert!(set.contains(&row(299)) && !set.contains(&row(300)));
        // Equality ignores order; a clear set is reusable.
        let reversed: RecordSet = (0..300).rev().map(row).collect();
        assert_eq!(set, reversed);
        set.clear();
        assert!(set.is_empty() && !set.contains(&row(1)));
        assert!(set.insert(row(1)));
        assert_ne!(set, reversed);
    }

    #[test]
    fn hasher_separates_short_inputs_and_lengths() {
        let inputs: [&[u8]; 6] = [b"", b"a", b"a\0", b"ab", b"abcdefgh", b"abcdefgh\0"];
        let mut seen = std::collections::BTreeSet::new();
        for bytes in inputs {
            let mut h = ValueHasher::default();
            h.write(bytes);
            h.write_u8(0xff);
            assert!(seen.insert(h.finish()), "{bytes:?} collides");
        }
    }
}
