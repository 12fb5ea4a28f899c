use std::fmt;

/// A fixed-universe bitset over the *local* citation indices of one query
/// result.
///
/// Navigation trees remap the citations of a query result onto dense indices
/// `0..universe`, so per-node result lists and component-subtree unions
/// become word-parallel bit operations. Duplicate handling — the crux of the
/// paper's cost model — reduces to comparing `Σ |R(m)|` with `|∪ R(m)|`.
#[derive(Clone, PartialEq, Eq)]
pub struct CitSet {
    words: Vec<u64>,
    universe: usize,
}

impl CitSet {
    /// An empty set over `universe` possible citations.
    pub fn new(universe: usize) -> Self {
        CitSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// The universe size this set was created with.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts a local citation index.
    ///
    /// # Panics
    /// Panics if `idx >= universe`.
    #[inline]
    pub fn insert(&mut self, idx: usize) {
        assert!(
            idx < self.universe,
            "citation index {idx} out of universe {}",
            self.universe
        );
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Inserts every index of `idxs` — the bulk form of
    /// [`insert`](Self::insert), one plain word write per index.
    ///
    /// # Panics
    /// Panics if an index falls past the last word; debug builds also
    /// check each index against `universe`.
    #[inline]
    pub(crate) fn insert_all(&mut self, idxs: &[u32]) {
        debug_assert!(
            idxs.iter().all(|&x| (x as usize) < self.universe),
            "citation index out of universe {}",
            self.universe
        );
        for &x in idxs {
            self.words[x as usize / 64] |= 1u64 << (x % 64);
        }
    }

    /// Removes every element, keeping the universe and the allocation.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        idx < self.universe && self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of elements.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∪= other`.
    ///
    /// # Panics
    /// Panics on universe mismatch (sets from different queries).
    pub fn union_with(&mut self, other: &CitSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `|self ∪ other|` without materializing the union.
    pub fn union_count(&self, other: &CitSet) -> u32 {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones())
            .sum()
    }

    /// `|self ∩ other|`.
    pub fn intersect_count(&self, other: &CitSet) -> u32 {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// Iterates over the contained indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Builds the union of several sets over the same universe.
    pub fn union_of<'a, I: IntoIterator<Item = &'a CitSet>>(universe: usize, sets: I) -> CitSet {
        let mut out = CitSet::new(universe);
        for s in sets {
            out.union_with(s);
        }
        out
    }
}

impl fmt::Debug for CitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CitSet({}/{})", self.count(), self.universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = CitSet::new(130);
        for i in [0, 63, 64, 65, 129] {
            s.insert(i);
        }
        assert_eq!(s.count(), 5);
        assert!(s.contains(64));
        assert!(!s.contains(1));
        assert!(!s.contains(999));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_range_panics() {
        CitSet::new(10).insert(10);
    }

    #[test]
    fn union_and_counts() {
        let mut a = CitSet::new(100);
        let mut b = CitSet::new(100);
        a.insert(1);
        a.insert(2);
        b.insert(2);
        b.insert(3);
        assert_eq!(a.union_count(&b), 3);
        assert_eq!(a.intersect_count(&b), 1);
        a.union_with(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = CitSet::new(200);
        let vals = [5usize, 64, 66, 190];
        for &v in &vals {
            s.insert(v);
        }
        let collected: Vec<usize> = s.iter().collect();
        assert_eq!(collected, vals);
    }

    #[test]
    fn insert_all_and_clear() {
        let mut s = CitSet::new(130);
        s.insert_all(&[129, 0, 64, 0]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe(), 130);
    }

    #[test]
    fn union_of_many() {
        let mut a = CitSet::new(16);
        let mut b = CitSet::new(16);
        a.insert(0);
        b.insert(15);
        let u = CitSet::union_of(16, [&a, &b]);
        assert_eq!(u.count(), 2);
        assert!(u.contains(0) && u.contains(15));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universes_panic() {
        let a = CitSet::new(10);
        let b = CitSet::new(20);
        a.union_count(&b);
    }

    #[test]
    fn zero_universe_is_fine() {
        let s = CitSet::new(0);
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn exact_word_boundary_universe() {
        let mut s = CitSet::new(64);
        s.insert(0);
        s.insert(63);
        assert_eq!(s.count(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// CitSet agrees with a BTreeSet model on every operation.
            #[test]
            fn matches_btreeset_model(
                xs in proptest::collection::vec(0usize..200, 0..60),
                ys in proptest::collection::vec(0usize..200, 0..60),
            ) {
                let mut a = CitSet::new(200);
                let mut b = CitSet::new(200);
                let ma: BTreeSet<usize> = xs.iter().copied().collect();
                let mb: BTreeSet<usize> = ys.iter().copied().collect();
                for &x in &xs { a.insert(x); }
                for &y in &ys { b.insert(y); }
                prop_assert_eq!(a.count() as usize, ma.len());
                prop_assert_eq!(a.iter().collect::<Vec<_>>(), ma.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(a.union_count(&b) as usize, ma.union(&mb).count());
                prop_assert_eq!(a.intersect_count(&b) as usize, ma.intersection(&mb).count());
                let mut u = a.clone();
                u.union_with(&b);
                prop_assert_eq!(u.count() as usize, ma.union(&mb).count());
                for x in 0..200 {
                    prop_assert_eq!(a.contains(x), ma.contains(&x));
                }
            }
        }
    }
}
