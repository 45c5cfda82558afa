//! A map stored as one vector sorted by key.
//!
//! The routing plane builds one small map per *subscription* (its streams,
//! frozen into a shared slice once built) and holds one per *stream
//! partition* (its indexed operands), by the tens of
//! thousands, and nearly all of them hold one or two pairs. A `BTreeMap`
//! spends a whole leaf node on the first pair (1.3 KB for a stream
//! request), a `HashMap` a 48-byte header, a four-slot table and a SipHash
//! per lookup. A [`VecMap`] spends the pairs and a vector header: an empty
//! map allocates nothing, the first insert allocates room for exactly one
//! pair, lookups binary-search (a comparison or two at these sizes, and
//! still logarithmic for the engine-host feeds that request dozens of
//! streams), and iteration is ascending by key — the order a `BTreeMap`
//! would iterate, so code that depended on that order keeps it.

/// A map from `K` to `V` kept as a vector of pairs in strictly ascending
/// key order. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct VecMap<K, V> {
    pairs: Vec<(K, V)>,
}

// Manual impl: the derive would needlessly bound `K: Default, V: Default`.
impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        Self { pairs: Vec::new() }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// An empty map (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the map holds no key.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    fn position(&self, key: &K) -> Result<usize, usize> {
        self.pairs.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).ok().map(|i| &self.pairs[i].1)
    }

    /// Mutable access to the value of `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.position(key).ok().map(|i| &mut self.pairs[i].1)
    }

    fn insert_at(&mut self, i: usize, key: K, value: V) {
        if self.pairs.capacity() == 0 {
            // The one-pair map, by far the commonest, carries no slack.
            self.pairs.reserve_exact(1);
        }
        self.pairs.insert(i, (key, value));
    }

    /// Sets the value of `key`, returning the one it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.pairs[i].1, value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// The value of `key`, inserting the default first when absent.
    pub fn get_or_insert_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.position(&key) {
            Ok(i) => i,
            Err(i) => {
                self.insert_at(i, key, V::default());
                i
            }
        };
        &mut self.pairs[i].1
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&K, &V)> + Clone {
        self.pairs.iter().map(|(k, v)| (k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &K> + Clone {
        self.pairs.iter().map(|(k, _)| k)
    }

    /// Values, mutably, in ascending key order.
    pub fn values_mut(&mut self) -> impl ExactSizeIterator<Item = &mut V> {
        self.pairs.iter_mut().map(|(_, v)| v)
    }

    /// Releases growth slack: the map keeps room for exactly its pairs.
    pub fn shrink_to_fit(&mut self) {
        self.pairs.shrink_to_fit();
    }

    /// The pairs, in ascending key order.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        self.pairs
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for VecMap<K, V> {
    /// Collects pairs in any order; a repeated key keeps its last value.
    /// Already-ascending input appends without moving anything.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut map = Self { pairs: Vec::with_capacity(iter.size_hint().0) };
        for (key, value) in iter {
            map.insert(key, value);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_keys_ascending_and_replaces_on_insert() {
        let mut map = VecMap::new();
        assert!(map.is_empty() && map.get(&3).is_none());
        assert_eq!(map.insert(3, "c"), None);
        assert_eq!(map.insert(1, "a"), None);
        assert_eq!(map.insert(2, "b"), None);
        assert_eq!(map.insert(3, "C"), Some("c"));
        assert_eq!(map.iter().collect::<Vec<_>>(), vec![(&1, &"a"), (&2, &"b"), (&3, &"C")]);
        assert_eq!((map.len(), map.get(&2)), (3, Some(&"b")));
        *map.get_mut(&1).unwrap() = "A";
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(map, [(2, "b"), (3, "c"), (1, "A"), (3, "C")].into_iter().collect());
    }

    #[test]
    fn first_insert_allocates_exactly_one_pair() {
        let mut map: VecMap<u32, Vec<u8>> = VecMap::new();
        assert_eq!(map.pairs.capacity(), 0);
        map.get_or_insert_default(7).push(1);
        assert_eq!(map.pairs.capacity(), 1);
        map.get_or_insert_default(7).push(2);
        map.get_or_insert_default(5).push(3);
        assert_eq!(map.iter().collect::<Vec<_>>(), vec![(&5, &vec![3]), (&7, &vec![1, 2])]);
        map.values_mut().for_each(Vec::clear);
        assert!(map.get(&7).is_some_and(Vec::is_empty));
    }
}
