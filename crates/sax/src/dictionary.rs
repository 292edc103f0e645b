//! Interning SAX words into dense `u32` tokens.
//!
//! Sequitur (the grammar stage) operates on integer terminals; the
//! dictionary maps each distinct SAX word to a stable token id and back.

use std::collections::hash_map::DefaultHasher;
#[expect(
    clippy::disallowed_types,
    reason = "imported for the lookup-only hash bucket index below"
)]
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::word::SaxWord;

/// A bidirectional word ↔ token table.
///
/// Tokens are assigned densely in first-seen order, so the grammar stage
/// can use them directly as array indexes.
///
/// Each word is stored exactly once, in the token-ordered table; lookups
/// go through a hash → token-bucket index that probes the stored words, so
/// interning a new word costs one clone instead of two.
#[derive(Debug, Clone, Default)]
pub struct SaxDictionary {
    by_token: Vec<SaxWord>,
    /// Word-hash → tokens with that hash. Buckets almost always hold one
    /// entry; collisions are resolved by comparing the stored words.
    #[expect(
        clippy::disallowed_types,
        reason = "probed by hash key only, never iterated; word order comes from by_token"
    )]
    by_hash: HashMap<u64, Vec<u32>>,
}

fn hash_word(word: &SaxWord) -> u64 {
    let mut h = DefaultHasher::new();
    word.hash(&mut h);
    h.finish()
}

impl SaxDictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the token for `word`, inserting it if unseen.
    pub fn intern(&mut self, word: &SaxWord) -> u32 {
        let h = hash_word(word);
        if let Some(bucket) = self.by_hash.get(&h) {
            for &t in bucket {
                if &self.by_token[t as usize] == word {
                    return t;
                }
            }
        }
        let t = self.by_token.len() as u32;
        // gv-lint: allow(alloc-reachability) interning allocates only for never-seen words; the SAX alphabet bounds the vocabulary so the steady state allocates nothing
        self.by_token.push(word.clone());
        self.by_hash.entry(h).or_default().push(t);
        t
    }

    /// Looks a word up without inserting.
    pub fn token_of(&self, word: &SaxWord) -> Option<u32> {
        let bucket = self.by_hash.get(&hash_word(word))?;
        bucket
            .iter()
            .copied()
            .find(|&t| &self.by_token[t as usize] == word)
    }

    /// The word for a token, if assigned.
    pub fn word_of(&self, token: u32) -> Option<&SaxWord> {
        self.by_token.get(token as usize)
    }

    /// Number of distinct words interned.
    pub fn len(&self) -> usize {
        self.by_token.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_token.is_empty()
    }

    /// Forgets every word while keeping the table and index capacity, so a
    /// reused dictionary (e.g. one held in a detection workspace) stops
    /// re-allocating after warm-up.
    pub fn clear(&mut self) {
        self.by_token.clear();
        self.by_hash.clear();
    }

    /// Capacity of the token-ordered word table (for allocation-stability
    /// assertions on reused dictionaries).
    pub fn capacity(&self) -> usize {
        self.by_token.capacity()
    }

    /// Iterates `(token, word)` pairs in token order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &SaxWord)> {
        self.by_token.iter().enumerate().map(|(i, w)| (i as u32, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> SaxWord {
        SaxWord::from_letters(s).unwrap()
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut d = SaxDictionary::new();
        assert!(d.is_empty());
        let t0 = d.intern(&w("abc"));
        let t1 = d.intern(&w("abd"));
        let t0_again = d.intern(&w("abc"));
        assert_eq!(t0, 0);
        assert_eq!(t1, 1);
        assert_eq!(t0, t0_again);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn lookups() {
        let mut d = SaxDictionary::new();
        let t = d.intern(&w("ca"));
        assert_eq!(d.token_of(&w("ca")), Some(t));
        assert_eq!(d.token_of(&w("zz")), None);
        assert_eq!(d.word_of(t), Some(&w("ca")));
        assert_eq!(d.word_of(99), None);
    }

    #[test]
    fn iteration_in_token_order() {
        let mut d = SaxDictionary::new();
        d.intern(&w("b"));
        d.intern(&w("a"));
        let pairs: Vec<_> = d.iter().map(|(t, word)| (t, word.to_letters())).collect();
        assert_eq!(pairs, vec![(0, "b".to_string()), (1, "a".to_string())]);
    }

    #[test]
    fn clear_retains_table_capacity() {
        let mut d = SaxDictionary::new();
        for i in 0..64u8 {
            d.intern(&SaxWord::new(vec![i % 4, i / 4 % 4, i / 16]));
        }
        let cap = d.capacity();
        assert!(cap >= d.len());
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.token_of(&w("aaa")), None);
        assert_eq!(d.capacity(), cap);
        // Re-interning assigns fresh dense tokens.
        assert_eq!(d.intern(&w("dd")), 0);
        assert_eq!(d.intern(&w("da")), 1);
    }

    #[test]
    fn many_words_round_trip() {
        // Exercise the hash-bucket index well past a handful of entries.
        let mut d = SaxDictionary::new();
        let words: Vec<SaxWord> = (0..256u16)
            .map(|i| {
                SaxWord::new(vec![
                    (i % 4) as u8,
                    (i / 4 % 4) as u8,
                    (i / 16 % 4) as u8,
                    (i / 64) as u8,
                ])
            })
            .collect();
        let tokens: Vec<u32> = words.iter().map(|w| d.intern(w)).collect();
        assert_eq!(d.len(), 256);
        for (w, &t) in words.iter().zip(&tokens) {
            assert_eq!(d.token_of(w), Some(t));
            assert_eq!(d.word_of(t), Some(w));
        }
    }
}
