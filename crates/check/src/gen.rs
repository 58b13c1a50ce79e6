//! The [`Gen`] trait, the [`Source`] of draws it reads, and the
//! combinator zoo.
//!
//! A generator builds its value from bounded draws on a [`Source`]. A
//! fresh source takes them from a seeded [`SimRng`] and records them; a
//! replaying source reads a given sequence instead. A case therefore *is*
//! its recorded choice sequence, and the runner shrinks a failure by
//! editing that sequence and regenerating (the internal reduction of
//! Hypothesis). No generator shrinks on its own, so `map`, `one_of` and
//! custom generators minimize as well as the primitives do. Every encoding
//! here is chosen so that a lower draw means a simpler value.

use std::ops::Range;

use simcore::SimRng;

/// The bounded draws a [`Gen`] builds its value from.
#[derive(Default)]
pub struct Source {
    /// Fresh mode draws from this RNG; replay mode has none.
    rng: Option<SimRng>,
    /// The sequence replay mode reads (empty in fresh mode).
    replay: Vec<u64>,
    /// Every draw made so far, as returned.
    pub(crate) drawn: Vec<u64>,
    /// The draws of each [`vecs`] element and of the marker after it. The
    /// runner deletes elements by deleting these.
    pub(crate) spans: Vec<Range<usize>>,
}

impl Source {
    /// A source drawing from `SimRng::new(seed)`.
    pub(crate) fn fresh(seed: u64) -> Self {
        Source {
            rng: Some(SimRng::new(seed)),
            ..Source::default()
        }
    }

    /// A source replaying `choices`: a value past a draw's bound is
    /// clamped to it, and a draw past the end returns 0.
    pub(crate) fn replay(choices: Vec<u64>) -> Self {
        Source {
            replay: choices,
            ..Source::default()
        }
    }

    /// Draws a value in `[0, max]`, uniformly in fresh mode. A custom
    /// generator must encode its values so that a lower draw means a
    /// simpler value: that is the order shrinking moves in.
    pub fn draw(&mut self, max: u64) -> u64 {
        let v = match &mut self.rng {
            Some(rng) if max == u64::MAX => rng.next_u64(),
            Some(rng) => rng.next_below(max + 1),
            None => self.replay.get(self.drawn.len()).map_or(0, |&v| v.min(max)),
        };
        self.drawn.push(v);
        v
    }
}

/// A deterministic value generator; the runner shrinks what it draws.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + std::fmt::Debug;

    /// Builds one value from the source's draws.
    fn generate(&self, src: &mut Source) -> Self::Value;

    /// Maps the generated value through `f`.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + std::fmt::Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Boxes the generator for heterogeneous collections ([`one_of`]).
    fn boxed(self) -> BoxedGen<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A boxed, dynamically-dispatched generator.
pub(crate) type BoxedGen<T> = Box<dyn Gen<Value = T>>;

// ---------------------------------------------------------------------------
// Integers
// ---------------------------------------------------------------------------

/// Primitive integers a [`range`] generator can produce, routed through
/// `i128` so one implementation covers every width and signedness.
pub trait Int: Copy + PartialOrd + std::fmt::Debug + 'static {
    /// Widens to the universal carrier.
    fn to_i128(self) -> i128;
    /// Narrows from the universal carrier (caller guarantees fit).
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            fn to_i128(self) -> i128 { self as i128 }
            fn from_i128(v: i128) -> Self { v as $t }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform integer in `[lo, hi]`, shrinking toward the in-range value
/// closest to zero.
pub struct IntGen<T: Int> {
    lo: T,
    hi: T,
}

/// Uniform integer generator over the inclusive range `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn range<T: Int>(lo: T, hi: T) -> IntGen<T> {
    assert!(lo <= hi, "range requires lo <= hi");
    IntGen { lo, hi }
}

impl<T: Int> Gen for IntGen<T> {
    type Value = T;

    fn generate(&self, src: &mut Source) -> T {
        let (lo, hi) = (self.lo.to_i128(), self.hi.to_i128());
        let origin = 0i128.clamp(lo, hi);
        // The draw is the distance from the origin, zigzagging over both
        // sides (+1, −1, +2, …) until the shorter side runs out.
        let d = src.draw((hi - lo) as u64) as i128;
        let (up, down) = (hi - origin, origin - lo);
        let both = up.min(down);
        let off = match d {
            d if d > 2 * both && up > down => d - both,
            d if d > 2 * both => both - d,
            d if d % 2 == 1 => (d + 1) / 2,
            d => -d / 2,
        };
        T::from_i128(origin + off)
    }
}

/// Uniform boolean, shrinking `true → false`.
pub fn bools() -> impl Gen<Value = bool> {
    range(0u8, 1).map(|b| b == 1)
}

// ---------------------------------------------------------------------------
// Choice
// ---------------------------------------------------------------------------

/// Uniformly picks one of the listed literal values. Shrinks toward
/// earlier entries — order the list simplest-first.
pub fn choice<T: Clone + std::fmt::Debug + 'static>(items: Vec<T>) -> impl Gen<Value = T> {
    assert!(!items.is_empty(), "choice requires at least one item");
    range(0, items.len() - 1).map(move |i| items[i].clone())
}

/// Always produces `value` (useful inside tuples / `one_of`).
pub fn just<T: Clone + std::fmt::Debug + 'static>(value: T) -> impl Gen<Value = T> {
    choice(vec![value])
}

/// Uniformly delegates to one of the boxed sub-generators (the analogue
/// of `prop_oneof!`). Shrinks toward earlier branches, and within the
/// branch it picked.
pub fn one_of<T: Clone + std::fmt::Debug + 'static>(gens: Vec<BoxedGen<T>>) -> OneOfGen<T> {
    assert!(!gens.is_empty(), "one_of requires at least one generator");
    OneOfGen { gens }
}

/// See [`one_of`].
pub struct OneOfGen<T> {
    gens: Vec<BoxedGen<T>>,
}

impl<T: Clone + std::fmt::Debug + 'static> Gen for OneOfGen<T> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        let idx = src.draw(self.gens.len() as u64 - 1) as usize;
        self.gens[idx].generate(src)
    }
}

// ---------------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------------

/// See [`Gen::map`].
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G, U, F> Gen for Map<G, F>
where
    G: Gen,
    U: Clone + std::fmt::Debug,
    F: Fn(G::Value) -> U,
{
    type Value = U;
    fn generate(&self, src: &mut Source) -> U {
        (self.f)(self.inner.generate(src))
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple_gen {
    ($($G:ident / $i:tt),+) => {
        impl<$($G: Gen),+> Gen for ($($G,)+) {
            type Value = ($($G::Value,)+);
            fn generate(&self, src: &mut Source) -> Self::Value {
                ($(self.$i.generate(src),)+)
            }
        }
    };
}

impl_tuple_gen!(G0 / 0, G1 / 1);
impl_tuple_gen!(G0 / 0, G1 / 1, G2 / 2);
impl_tuple_gen!(G0 / 0, G1 / 1, G2 / 2, G3 / 3);

// ---------------------------------------------------------------------------
// Vectors
// ---------------------------------------------------------------------------

/// A vector of `elem`-generated values with length uniform in
/// `[min_len, max_len]`. Shrinks by dropping elements (never below
/// `min_len`) and by simplifying them in place.
pub fn vecs<G: Gen>(elem: G, min_len: usize, max_len: usize) -> VecGen<G> {
    assert!(min_len <= max_len, "vecs requires min_len <= max_len");
    VecGen {
        elem,
        min_len,
        max_len,
    }
}

/// See [`vecs`].
pub struct VecGen<G> {
    elem: G,
    min_len: usize,
    max_len: usize,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, src: &mut Source) -> Vec<G::Value> {
        let mut out = Vec::new();
        let mut start = None;
        loop {
            // Before each optional element, a marker in [0, max_len − len]
            // that stops the vector at 0: the length stays uniform.
            let more = out.len() < self.min_len
                || (out.len() < self.max_len && src.draw((self.max_len - out.len()) as u64) != 0);
            // An element's span takes in the marker after it, so deleting
            // the span deletes just that element.
            if let Some(start) = start {
                src.spans.push(start..src.drawn.len());
            }
            if !more {
                return out;
            }
            start = Some(src.drawn.len());
            out.push(self.elem.generate(src));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{replay_seed, run_check, Config};

    /// The minimized counterexample of "`fails` never holds".
    fn minimize<G: Gen>(gen: &G, fails: impl Fn(&G::Value) -> bool) -> G::Value {
        run_check(Config::with_cases(64), "gen_minimize", gen, &|v| {
            if fails(v) {
                Err("failed".into())
            } else {
                Ok(())
            }
        })
        .expect("property must fail")
        .minimized
    }

    #[test]
    fn int_generate_stays_in_range() {
        let g = range(-50i32, 100);
        let mut src = Source::fresh(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4000 {
            let v = g.generate(&mut src);
            assert!((-50..=100).contains(&v));
            seen.insert(v);
        }
        assert_eq!(seen.len(), 151, "every value is reachable");
    }

    #[test]
    fn int_shrink_targets_zero() {
        assert_eq!(minimize(&range(0u64, 1000), |_| true), 0);
        assert_eq!(minimize(&range(-500i32, 1000), |_| true), 0);
        assert_eq!(minimize(&range(0u64, 1000), |&v| v >= 700), 700);
    }

    #[test]
    fn negative_range_shrinks_toward_upper_bound_origin() {
        assert_eq!(minimize(&range(-100i64, -10), |_| true), -10);
        assert_eq!(minimize(&range(-100i64, -10), |&v| v <= -80), -80);
    }

    #[test]
    fn full_u64_range_generates() {
        let g = range(0u64, u64::MAX);
        let mut src = Source::fresh(3);
        let a = g.generate(&mut src);
        let b = g.generate(&mut src);
        assert_ne!(a, b);
        assert_eq!(minimize(&g, |&v| v > 1 << 40), (1 << 40) + 1);
    }

    #[test]
    fn vec_shrink_drops_elements() {
        let g = vecs(range(0u8, 255), 0, 10);
        assert_eq!(minimize(&g, |_| true), Vec::<u8>::new());
        assert_eq!(minimize(&g, |v| v.contains(&7)), vec![7]);
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let g = vecs(range(0u8, 255), 2, 10);
        assert_eq!(minimize(&g, |_| true), vec![0, 0]);
    }

    #[test]
    fn vec_lengths_are_uniform() {
        let g = vecs(just(()), 2, 5);
        let mut counts = [0u32; 6];
        let mut src = Source::fresh(5);
        for _ in 0..8000 {
            counts[g.generate(&mut src).len()] += 1;
        }
        assert_eq!(counts[..2], [0, 0]);
        assert!(
            counts[2..].iter().all(|&c| (1800..2200).contains(&c)),
            "{counts:?}"
        );
    }

    #[test]
    fn tuple_shrinks_componentwise() {
        let g = (range(0u32, 100), bools());
        assert_eq!(minimize(&g, |&(n, _)| n >= 40), (40, false));
        assert_eq!(minimize(&g, |&(_, b)| b), (0, true));
    }

    #[test]
    fn choice_shrinks_to_earlier_entries() {
        let g = choice(vec!["a", "b", "c"]);
        assert_eq!(minimize(&g, |_| true), "a");
        assert_eq!(minimize(&g, |&s| s != "a"), "b");
    }

    #[test]
    fn mapped_struct_shrinks() {
        #[derive(Clone, Debug)]
        struct Point {
            x: u32,
            y: u32,
        }
        let g = (range(0u32, 1000), range(0u32, 1000)).map(|(x, y)| Point { x, y });
        let p = minimize(&g, |p| p.x + p.y >= 500);
        assert_eq!(p.x + p.y, 500, "{p:?}");
    }

    #[test]
    fn one_of_mapped_elements_simplify_in_place() {
        #[derive(Clone, Debug, PartialEq)]
        enum Op {
            Pop,
            Push(u32),
        }
        let op = one_of(vec![
            just(Op::Pop).boxed(),
            range(0u32, 1000).map(Op::Push).boxed(),
        ]);
        let g = vecs(op, 0, 20);
        let big_push = |v: &Vec<Op>| v.iter().any(|o| matches!(o, Op::Push(n) if *n >= 10));
        assert_eq!(minimize(&g, big_push), vec![Op::Push(10)]);
    }

    #[test]
    fn one_of_generates_all_branches() {
        let g = one_of(vec![range(0u64, 0).boxed(), range(100u64, 100).boxed()]);
        let mut src = Source::fresh(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(g.generate(&mut src));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn one_of_shrinks_within_the_chosen_branch() {
        // Only the second branch fails; its simplest failing value is 101,
        // a value that branch generates.
        let g = one_of(vec![range(5u64, 10).boxed(), range(100u64, 200).boxed()]);
        let f = run_check(Config::with_cases(256), "gen_one_of", &g, &|&v| {
            if v < 50 || v == 100 {
                Ok(())
            } else {
                Err(format!("{v}"))
            }
        })
        .expect("property must fail");
        assert_eq!(f.minimized, 101);
        assert!(f.shrink_steps < 64, "{} steps", f.shrink_steps);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = vecs((range(0u64, 9), bools()), 0, 20);
        assert_eq!(replay_seed(&g, 42), replay_seed(&g, 42));
    }

    #[test]
    fn replay_clamps_and_pads_with_zero() {
        let mut src = Source::replay(vec![7, 300]);
        assert_eq!(src.draw(3), 3);
        assert_eq!(src.draw(u64::MAX), 300);
        assert_eq!(src.draw(9), 0);
        assert_eq!(src.drawn, vec![3, 300, 0]);
    }
}
