//! Whole-corpus aggregation workloads: term counting and vocabulary dedup.
//!
//! The paper's applications (grep, tagging, tokenization) are all
//! *embarrassingly parallel* — every file's answer is independent, so N
//! instances never talk to each other. Aggregations are the first workload
//! class that cannot be expressed that way: a corpus-wide term count (or
//! the distinct-term vocabulary) needs every file's partial results merged
//! across the fleet, i.e. a map/shuffle/reduce. This module is the *data
//! plane* of that workload: per-file keyed partials, a deterministic
//! key→reducer partitioner, commutative merges, and a canonical byte
//! rendering — everything the distributed executor in `provision` moves
//! through a sharing backend, plus the sequential oracle the differential
//! harness compares against bit-for-bit.
//!
//! Determinism: partials are `BTreeMap`s (sorted iteration), the
//! partitioner is a pure FNV-1a hash of the term, and both merge
//! operators (sum for counts, min for first-seen file ids) are commutative
//! and associative — so any grouping or ordering of the merges yields the
//! same map, and the rendered reduce output is byte-identical however the
//! work was split. The map pass counts in a [`TermTable`], whose slot
//! order never reaches a partial: it drains into a sorted one.

use crate::pos::{sentences, tokenize};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which corpus-wide aggregation to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggKind {
    /// Term → total occurrences across the corpus.
    TermCount,
    /// Term → smallest file id containing it (the dedup'd vocabulary with
    /// a first-seen witness).
    Dedup,
}

impl AggKind {
    /// Stable snake_case label for logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            AggKind::TermCount => "term_count",
            AggKind::Dedup => "dedup",
        }
    }
}

/// A keyed partial result: term → value (count or first-seen file id).
pub type Partial = BTreeMap<String, u64>;

/// The value one occurrence of a term in file `file_id` contributes.
fn occurrence(kind: AggKind, file_id: u64) -> u64 {
    match kind {
        AggKind::TermCount => 1,
        AggKind::Dedup => file_id,
    }
}

/// Tokenize one document sentence by sentence and emit its keyed partial.
/// This is the plain reference path [`oracle`] takes; the map pass counts
/// through a [`TermTable`] instead.
pub fn map_document(kind: AggKind, file_id: u64, text: &str) -> Partial {
    let value = occurrence(kind, file_id);
    let mut out = Partial::new();
    for sentence in sentences(text) {
        for token in tokenize(sentence) {
            if !token.is_punct {
                out.entry(token.text.to_lowercase())
                    .and_modify(|v| merge_value(kind, v, value))
                    .or_insert(value);
            }
        }
    }
    out
}

/// Fold `value` into `acc` with the kind's commutative operator.
fn merge_value(kind: AggKind, acc: &mut u64, value: u64) {
    match kind {
        AggKind::TermCount => *acc += value,
        AggKind::Dedup => *acc = (*acc).min(value),
    }
}

/// Slots a new [`TermTable`] starts with; a power of two.
const INITIAL_SLOTS: usize = 1 << 10;

/// One map bin's terms while they are counted: an open-addressed table
/// with linear probing, keyed by FNV-1a of the lowercased term. Each
/// document is tokenized whole, a term's text is allocated only the first
/// time the bin sees it, and [`TermTable::into_partial`] drains the bin
/// once into the sorted [`Partial`]. Adding documents in any order gives
/// the same partial as merging their [`map_document`]s.
#[derive(Debug)]
pub struct TermTable {
    kind: AggKind,
    /// Index + 1 into `terms` per slot, 0 when empty; at most half full.
    slots: Vec<usize>,
    /// Each distinct term with its hash and value, in first-seen order.
    terms: Vec<(u64, String, u64)>,
    /// The one buffer tokens that need lowercasing are lowercased into.
    lower: String,
}

impl TermTable {
    /// An empty table for `kind`.
    pub fn new(kind: AggKind) -> Self {
        TermTable {
            kind,
            slots: vec![0; INITIAL_SLOTS],
            terms: Vec::new(),
            lower: String::new(),
        }
    }

    /// Count every word of document `file_id` into the table.
    pub fn add_document(&mut self, file_id: u64, text: &str) {
        let value = occurrence(self.kind, file_id);
        let mut lower = std::mem::take(&mut self.lower);
        for token in tokenize(text) {
            if token.is_punct {
                continue;
            }
            let term = token.text;
            if !term
                .bytes()
                .any(|b| b.is_ascii_uppercase() || !b.is_ascii())
            {
                self.add(term, value);
                continue;
            }
            lower.clear();
            if term.is_ascii() {
                lower.push_str(term);
                lower.make_ascii_lowercase();
            } else {
                // Whole-string lowercasing, so a final capital sigma
                // becomes 'ς' as it does in `map_document`.
                lower.push_str(&term.to_lowercase());
            }
            self.add(&lower, value);
        }
        self.lower = lower;
    }

    /// Fold one occurrence of the lowercased `term` into the table.
    fn add(&mut self, term: &str, value: u64) {
        let hash = corpus::hash::fnv1a(term.as_bytes());
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        while let Some(i) = self.slots[at].checked_sub(1) {
            let (h, t, v) = &mut self.terms[i];
            if *h == hash && t == term {
                merge_value(self.kind, v, value);
                return;
            }
            at = (at + 1) & mask;
        }
        self.terms.push((hash, term.to_owned(), value));
        self.slots[at] = self.terms.len();
        if 2 * self.terms.len() > self.slots.len() {
            self.grow();
        }
    }

    /// The slot a hash probes first: its top bits, which FNV-1a's final
    /// multiply mixes from every byte.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Double the slots and re-place every term by its stored hash.
    fn grow(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for (i, &(hash, _, _)) in self.terms.iter().enumerate() {
            let mut at = self.home(hash);
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = i + 1;
        }
    }

    /// The bin's partial, sorted by term.
    pub fn into_partial(self) -> Partial {
        self.terms.into_iter().map(|(_, t, v)| (t, v)).collect()
    }
}

/// Merge `other` into `acc` with the kind's commutative operator.
pub fn merge_partials(kind: AggKind, acc: &mut Partial, other: &Partial) {
    for (term, &value) in other {
        acc.entry(term.clone())
            .and_modify(|v| merge_value(kind, v, value))
            .or_insert(value);
    }
}

/// The reduce bin a term belongs to, out of `reduce_bins`: FNV-1a of the
/// term's bytes. Pure, so the key→reducer assignment is identical on every
/// worker and every run.
pub fn partition(term: &str, reduce_bins: usize) -> usize {
    (corpus::hash::fnv1a(term.as_bytes()) % reduce_bins.max(1) as u64) as usize
}

/// Split one partial into per-reducer partials by [`partition`].
pub fn partition_partial(partial: &Partial, reduce_bins: usize) -> Vec<Partial> {
    let mut bins = vec![Partial::new(); reduce_bins.max(1)];
    for (term, &value) in partial {
        bins[partition(term, reduce_bins)].insert(term.clone(), value);
    }
    bins
}

/// Canonical byte rendering of a partial: `term\tvalue\n` in term order.
/// This is both the simulated shuffle payload (its length is the
/// transferred byte count) and the reduce output format the differential
/// harness compares bit-for-bit.
pub fn render(partial: &Partial) -> Vec<u8> {
    let mut out = Vec::new();
    for (term, value) in partial {
        out.extend_from_slice(term.as_bytes());
        out.push(b'\t');
        out.extend_from_slice(value.to_string().as_bytes());
        out.push(b'\n');
    }
    out
}

/// Serialized size of a partial, bytes — what a shuffle moves.
pub fn partial_bytes(partial: &Partial) -> u64 {
    partial
        .iter()
        .map(|(term, value)| term.len() as u64 + value.to_string().len() as u64 + 2)
        .sum()
}

/// The sequential single-node oracle: materialize every file from the
/// corpus seed, map it, merge in file order. The distributed path must
/// reproduce [`render`] of this map byte-for-byte.
pub fn oracle(kind: AggKind, corpus_seed: u64, files: &[corpus::FileSpec]) -> Partial {
    let mut acc = Partial::new();
    for file in files {
        let text_bytes = corpus::text_bytes(corpus_seed, file);
        let text = String::from_utf8_lossy(&text_bytes);
        let partial = map_document(kind, file.id, &text);
        merge_partials(kind, &mut acc, &partial);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::FileSpec;

    fn files(n: u64) -> Vec<FileSpec> {
        (0..n).map(|i| FileSpec::new(i, 2_000 + 137 * i)).collect()
    }

    #[test]
    fn term_count_counts_occurrences() {
        let p = map_document(AggKind::TermCount, 0, "Ka ti ka. Ti ka!");
        assert_eq!(p["ka"], 3);
        assert_eq!(p["ti"], 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn dedup_keeps_first_seen_file_id() {
        let mut acc = map_document(AggKind::Dedup, 7, "ka ti.");
        let other = map_document(AggKind::Dedup, 3, "ka ro.");
        merge_partials(AggKind::Dedup, &mut acc, &other);
        assert_eq!(acc["ka"], 3, "min file id wins");
        assert_eq!(acc["ti"], 7);
        assert_eq!(acc["ro"], 3);
    }

    #[test]
    fn merges_are_commutative() {
        for kind in [AggKind::TermCount, AggKind::Dedup] {
            let a = map_document(kind, 0, "ka ti ro ka.");
            let b = map_document(kind, 1, "ti men ka.");
            let mut ab = a.clone();
            merge_partials(kind, &mut ab, &b);
            let mut ba = b.clone();
            merge_partials(kind, &mut ba, &a);
            assert_eq!(ab, ba, "{kind:?}");
        }
    }

    #[test]
    fn non_ascii_terms_are_lowercased() {
        let p = map_document(AggKind::TermCount, 0, "ÉCOLE école. ΣΟΦΙΑ σοφια!");
        assert_eq!(p.len(), 2, "{p:?}");
        assert_eq!(p["école"], 2);
        assert_eq!(p["σοφια"], 2);
    }

    #[test]
    fn map_into_equals_map_then_merge_in_any_order() {
        let mut docs: Vec<(u64, String)> = vec![
            (4, "ÉCOLE école. ΣΟΦΙΑ σοφια!".into()),
            (2, "Ka ti ka. Ti KA!".into()),
            (9, "don't well-known ROCK'N'ROLL, 42 apples?".into()),
        ];
        for file in files(3) {
            let bytes = corpus::text_bytes(5, &file);
            docs.push((file.id, String::from_utf8(bytes).unwrap()));
        }
        let forward: Vec<usize> = (0..docs.len()).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        let interleaved: Vec<usize> = (0..docs.len())
            .step_by(2)
            .chain((1..docs.len()).step_by(2))
            .collect();
        for kind in [AggKind::TermCount, AggKind::Dedup] {
            let mut expected = Partial::new();
            for (id, text) in &docs {
                merge_partials(kind, &mut expected, &map_document(kind, *id, text));
            }
            for order in [&forward, &reversed, &interleaved] {
                let mut table = TermTable::new(kind);
                for &i in order {
                    table.add_document(docs[i].0, &docs[i].1);
                }
                assert_eq!(
                    table.into_partial(),
                    expected,
                    "{kind:?} in order {order:?}"
                );
            }
        }
    }

    /// A seeded document of `words` words, each one to four pieces long,
    /// over mixed-case ASCII and capitals whose lowercase changes length
    /// ("İ" → "i̇", "ẞ" → "ß") or context ("ΟΔΟΣ" → "οδος").
    fn mixed_document(seed: u64, words: usize) -> String {
        use rand::{Rng, SeedableRng};
        const PIECES: &[&str] = &[
            "ka", "Ti", "RO", "mEn", "ΟΔΟΣ", "İ", "ẞ", "é", "Σ", "q", "x7", "don't", "-",
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut out = String::new();
        for w in 0..words {
            if w > 0 {
                out.push_str([" ", ", ", ". ", "! "][rng.random_range(0..4usize)]);
            }
            for _ in 0..rng.random_range(1..=4usize) {
                out.push_str(PIECES[rng.random_range(0..PIECES.len())]);
            }
        }
        out
    }

    #[test]
    fn the_term_table_matches_the_reference_past_growth_and_collisions() {
        let docs: Vec<(u64, String)> = (0..300u64)
            .map(|seed| (seed % 37, mixed_document(seed, 200)))
            .collect();
        for kind in [AggKind::TermCount, AggKind::Dedup] {
            let mut expected = Partial::new();
            let mut table = TermTable::new(kind);
            for (id, text) in &docs {
                merge_partials(kind, &mut expected, &map_document(kind, *id, text));
                table.add_document(*id, text);
            }
            assert!(expected.len() > 10_000, "{} distinct terms", expected.len());
            assert!(
                table.slots.len() >= INITIAL_SLOTS << 4,
                "grew to {}",
                table.slots.len()
            );
            let displaced = table
                .slots
                .iter()
                .enumerate()
                .filter(|&(at, &i)| i != 0 && table.home(table.terms[i - 1].0) != at)
                .count();
            assert!(displaced > 100, "{displaced} terms probed past a collision");
            assert_eq!(table.into_partial(), expected, "{kind:?}");
        }
        let mut table = TermTable::new(AggKind::TermCount);
        table.add_document(0, "ΟΔΟΣ İ ẞ οδος");
        let p = table.into_partial();
        assert_eq!(p["οδος"], 2, "{p:?}");
        assert_eq!(p["i\u{307}"], 1, "{p:?}");
        assert_eq!(p["ß"], 1, "{p:?}");
    }

    #[test]
    fn partitioning_is_total_and_disjoint() {
        let p = oracle(AggKind::TermCount, 42, &files(4));
        let bins = partition_partial(&p, 5);
        assert_eq!(bins.len(), 5);
        let mut merged = Partial::new();
        for bin in &bins {
            for (term, &v) in bin {
                assert!(merged.insert(term.clone(), v).is_none(), "dup {term}");
                assert_eq!(
                    partition(term, 5),
                    bins.iter().position(|b| b.contains_key(term)).unwrap()
                );
            }
        }
        assert_eq!(merged, p, "bins partition the key space");
        // More than one bin is actually used on a real vocabulary.
        assert!(bins.iter().filter(|b| !b.is_empty()).count() > 1);
    }

    #[test]
    fn render_is_canonical_and_sized() {
        let p = map_document(AggKind::TermCount, 0, "ti ka ka.");
        let bytes = render(&p);
        assert_eq!(bytes, b"ka\t2\nti\t1\n");
        assert_eq!(partial_bytes(&p), bytes.len() as u64);
    }

    #[test]
    fn oracle_is_deterministic_and_seed_sensitive() {
        let fs = files(6);
        let a = oracle(AggKind::TermCount, 42, &fs);
        assert_eq!(a, oracle(AggKind::TermCount, 42, &fs));
        assert_ne!(a, oracle(AggKind::TermCount, 43, &fs));
        assert!(a.len() > 50, "real vocabulary: {} terms", a.len());
        let total: u64 = a.values().sum();
        let dedup = oracle(AggKind::Dedup, 42, &fs);
        assert!(total > dedup.len() as u64, "counts exceed vocabulary");
    }

    #[test]
    fn split_map_merge_equals_oracle() {
        // The map/reduce identity that makes the distributed path work:
        // mapping files in any grouping and merging matches the oracle.
        let fs = files(8);
        let whole = oracle(AggKind::TermCount, 7, &fs);
        let mut acc = Partial::new();
        for chunk in fs.chunks(3).rev() {
            let partial = oracle(AggKind::TermCount, 7, chunk);
            merge_partials(AggKind::TermCount, &mut acc, &partial);
        }
        assert_eq!(render(&acc), render(&whole));
    }
}
