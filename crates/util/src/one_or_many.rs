//! A vector that holds its first element inline.
//!
//! The routing plane holds tens of thousands of stream partitions, and a
//! massive query population makes nearly all of them hold one member,
//! one always-candidate slot and one hop group: every user's result
//! stream is a route with one subscriber. A `Vec` spends a heap block on
//! each of those lone elements (plus the allocator's header and rounding);
//! a [`OneOrMany`] keeps the lone element in the slot the vector header
//! would have taken and allocates only from the second element on.
//!
//! It is a plain enum — no `unsafe`, no fixed inline capacity to tune —
//! and reads as a slice: indexing, iteration, binary search and `len` all
//! come from `Deref<Target = [T]>`. Equality and `Debug` are the slice's,
//! so two values holding the same elements compare and print alike
//! whichever variant holds them.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A sequence stored inline while it holds one element and as a `Vec`
/// otherwise. See the module docs.
#[derive(Clone)]
pub enum OneOrMany<T> {
    /// Exactly one element, no heap block.
    One(T),
    /// Any number of elements; an empty `Vec` allocates nothing.
    Many(Vec<T>),
}

/// An empty sequence (no allocation). Manual impl: the derive would
/// needlessly bound `T: Default`.
impl<T> Default for OneOrMany<T> {
    fn default() -> Self {
        Self::Many(Vec::new())
    }
}

impl<T> OneOrMany<T> {
    /// Appends `item`. Into an empty sequence it goes inline (releasing
    /// any room an emptied vector kept); a second element moves both into
    /// a vector of exactly two.
    pub fn push(&mut self, item: T) {
        match self {
            Self::Many(v) if !v.is_empty() => v.push(item),
            Self::Many(_) => *self = Self::One(item),
            Self::One(_) => {
                let mut v = Vec::with_capacity(2);
                if let Self::One(first) = std::mem::take(self) {
                    v.push(first);
                }
                v.push(item);
                *self = Self::Many(v);
            }
        }
    }

    /// Removes element `i`, moving the last element into its place, and
    /// returns it — `Vec::swap_remove`, bounds check included.
    pub fn swap_remove(&mut self, i: usize) -> T {
        let len = self.len();
        assert!(i < len, "swap_remove index (is {i}) should be < len (is {len})");
        match std::mem::take(self) {
            Self::One(item) => item,
            Self::Many(mut v) => {
                let item = v.swap_remove(i);
                *self = Self::Many(v);
                item
            }
        }
    }

    /// Releases growth slack: a vector keeps exactly its elements, and a
    /// vector of one gives its element back to the inline slot.
    pub fn shrink_to_fit(&mut self) {
        if let Self::Many(v) = self {
            if v.len() == 1 {
                if let Some(item) = v.pop() {
                    *self = Self::One(item);
                }
            } else {
                v.shrink_to_fit();
            }
        }
    }
}

impl<T> Deref for OneOrMany<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Self::One(item) => std::slice::from_ref(item),
            Self::Many(v) => v,
        }
    }
}

impl<T> DerefMut for OneOrMany<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Self::One(item) => std::slice::from_mut(item),
            Self::Many(v) => v,
        }
    }
}

impl<T: PartialEq> PartialEq for OneOrMany<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for OneOrMany<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn one_element_lives_inline() {
        let mut v = OneOrMany::default();
        assert!(v.is_empty() && matches!(&v, OneOrMany::Many(m) if m.capacity() == 0));
        v.push(7u32);
        assert!(matches!(v, OneOrMany::One(7)));
        v.push(8);
        assert!(matches!(&v, OneOrMany::Many(m) if m.capacity() == 2));
        assert_eq!((&v[..], format!("{v:?}")), (&[7, 8][..], "[7, 8]".to_owned()));
        assert_eq!(v.swap_remove(0), 7);
        assert!(matches!(&v, OneOrMany::Many(m) if m[..] == [8]));
        assert_eq!(v, OneOrMany::One(8), "equal whichever variant holds them");
        v.shrink_to_fit();
        assert!(matches!(v, OneOrMany::One(8)));
        assert_eq!(v.swap_remove(0), 8);
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "swap_remove index (is 1) should be < len (is 1)")]
    fn swap_remove_checks_bounds_inline_too() {
        let mut v = OneOrMany::One(1u8);
        v.swap_remove(1);
    }

    /// One step of a random sequence: what it does to both sides.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u32),
        SwapRemove(usize),
        Set(usize, u32),
        Clone,
        Shrink,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..5, 0u32..1_000, 0usize..8).prop_map(|(kind, value, at)| match kind {
            0 | 1 => Op::Push(value),
            2 => Op::SwapRemove(at),
            3 => Op::Set(at, value),
            4 if value % 2 == 0 => Op::Clone,
            _ => Op::Shrink,
        })
    }

    proptest! {
        /// Under any sequence of pushes, swap-removals, writes through
        /// `deref_mut`, clones and shrinks, a `OneOrMany` holds what a
        /// `Vec` given the same sequence holds, in the same order, and
        /// keeps a lone element inline after a shrink.
        #[test]
        fn prop_behaves_like_a_vec(ops in proptest::collection::vec(op(), 0..64)) {
            let (mut small, mut reference) = (OneOrMany::default(), Vec::new());
            for op in ops {
                match op {
                    Op::Push(x) => {
                        small.push(x);
                        reference.push(x);
                    }
                    Op::SwapRemove(i) if i < reference.len() => {
                        prop_assert_eq!(small.swap_remove(i), reference.swap_remove(i));
                    }
                    Op::Set(i, x) if i < reference.len() => {
                        small[i] = x;
                        reference[i] = x;
                    }
                    Op::Clone => small = small.clone(),
                    Op::Shrink => {
                        small.shrink_to_fit();
                        prop_assert_eq!(matches!(small, OneOrMany::One(_)), reference.len() == 1);
                    }
                    Op::SwapRemove(_) | Op::Set(..) => {}
                }
                prop_assert_eq!(&small[..], &reference[..]);
                prop_assert_eq!(small.len(), reference.len());
            }
        }
    }
}
