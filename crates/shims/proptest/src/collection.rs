//! Collection strategies (`prop::collection::vec`).

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use crate::strategy::{BoxedValueTree, Strategy, ValueTree};
use crate::test_runner::TestRunner;

/// Inclusive bounds on a generated collection's length.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

/// Strategy for `Vec`s whose length falls in `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn new_tree(&self, runner: &mut TestRunner) -> BoxedValueTree<Vec<S::Value>> {
        let span = (self.size.hi - self.size.lo + 1) as u64;
        let len = self.size.lo + runner.below(span) as usize;
        let elems: Vec<_> = (0..len).map(|_| self.element.new_tree(runner)).collect();
        Box::new(VecTree {
            live: len,
            chunk: len - self.size.lo,
            prev_live: len,
            min: self.size.lo,
            cursor: 0,
            last: Last::Len,
            elems,
        })
    }
}

enum Last {
    Len,
    Elem(usize),
}

/// Shrinks first by truncating (suffix removal, bisecting toward the
/// minimum length), then by simplifying surviving elements left-to-right.
struct VecTree<V: Debug + 'static> {
    elems: Vec<BoxedValueTree<V>>,
    live: usize,
    prev_live: usize,
    chunk: usize,
    min: usize,
    cursor: usize,
    last: Last,
}

impl<V: Debug + 'static> ValueTree for VecTree<V> {
    type Value = Vec<V>;
    fn current(&self) -> Vec<V> {
        self.elems[..self.live]
            .iter()
            .map(|t| t.current())
            .collect()
    }
    fn simplify(&mut self) -> bool {
        // Length phase.
        if self.live > self.min && self.chunk > 0 {
            let cut = self.chunk.min(self.live - self.min);
            self.prev_live = self.live;
            self.live -= cut;
            self.last = Last::Len;
            return true;
        }
        // Element phase.
        while self.cursor < self.live {
            if self.elems[self.cursor].simplify() {
                self.last = Last::Elem(self.cursor);
                return true;
            }
            self.cursor += 1;
        }
        false
    }
    fn reject(&mut self) {
        match self.last {
            Last::Len => {
                self.live = self.prev_live;
                self.chunk /= 2;
            }
            Last::Elem(i) => self.elems[i].reject(),
        }
    }
}
