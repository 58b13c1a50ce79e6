//! The [`Gen`] trait and the combinator zoo.
//!
//! A generator produces a value from a seeded [`SimRng`] and, given a
//! failing value, proposes a list of *strictly simpler* candidates for the
//! shrinking loop. Shrinking is value-based (QuickCheck style): integers
//! binary-search toward an origin, vectors drop halving-sized chunks and
//! then simplify elements in place. Because the runner iterates to a
//! fixpoint, each `shrink` call only needs to propose a modest, ordered
//! candidate set — simplest first.

use simcore::SimRng;

/// A deterministic value generator with integrated shrinking.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + std::fmt::Debug;

    /// Produces one value from the generator's distribution.
    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    /// Proposes strictly-simpler candidates for a failing value, simplest
    /// first. An empty vec means the value is fully shrunk.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps the generated value through `f`. Mapped generators do not
    /// shrink (the mapping is not invertible); wrap the *inputs* in
    /// shrinkable generators instead when minimal counterexamples matter.
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
pub type BoxedGen<T> = Box<dyn Gen<Value = T>>;

impl<T: Clone + std::fmt::Debug> Gen for BoxedGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut SimRng) -> T {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

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

impl<T: Int> IntGen<T> {
    fn origin(&self) -> i128 {
        0i128.clamp(self.lo.to_i128(), self.hi.to_i128())
    }
}

impl<T: Int> Gen for IntGen<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        let (lo, hi) = (self.lo.to_i128(), self.hi.to_i128());
        let span = (hi - lo) as u128;
        let off = if span >= u64::MAX as u128 {
            // Full-width 64-bit span: one raw draw is already uniform.
            rng.next_u64() as u128
        } else {
            rng.next_below(span as u64 + 1) as u128
        };
        T::from_i128(lo + off as i128)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        let v = value.to_i128();
        let origin = self.origin();
        if v == origin {
            return Vec::new();
        }
        let mut out = vec![T::from_i128(origin)];
        // Binary search between origin and v: origin+d/2, origin+3d/4, …
        let d = v - origin;
        let mut step = d / 2;
        while step != 0 && out.len() < 16 {
            out.push(T::from_i128(v - step));
            step /= 2;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Booleans
// ---------------------------------------------------------------------------

/// Uniform boolean, shrinking `true → false`.
pub fn bools() -> BoolGen {
    BoolGen
}

/// See [`bools`].
pub struct BoolGen;

impl Gen for BoolGen {
    type Value = bool;
    fn generate(&self, rng: &mut SimRng) -> bool {
        rng.next_u64() & 1 == 1
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

// ---------------------------------------------------------------------------
// Choice
// ---------------------------------------------------------------------------

/// Uniformly picks one of the listed literal values. Shrinks toward
/// earlier entries — order the list simplest-first.
pub fn choice<T: Clone + std::fmt::Debug + PartialEq + 'static>(items: Vec<T>) -> ChoiceGen<T> {
    assert!(!items.is_empty(), "choice requires at least one item");
    ChoiceGen { items }
}

/// See [`choice`].
pub struct ChoiceGen<T> {
    items: Vec<T>,
}

impl<T: Clone + std::fmt::Debug + PartialEq + 'static> Gen for ChoiceGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut SimRng) -> T {
        self.items[rng.next_below(self.items.len() as u64) as usize].clone()
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        match self.items.iter().position(|i| i == value) {
            Some(idx) => self.items[..idx].to_vec(),
            None => Vec::new(),
        }
    }
}

/// Uniformly delegates to one of the boxed sub-generators (the analogue
/// of `prop_oneof!`). Shrinking tries every branch's shrinker — branches
/// simply return nothing for values they don't recognize.
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
    fn generate(&self, rng: &mut SimRng) -> T {
        let idx = rng.next_below(self.gens.len() as u64) as usize;
        self.gens[idx].generate(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        self.gens.iter().flat_map(|g| g.shrink(value)).collect()
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
    fn generate(&self, rng: &mut SimRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple_gen {
    ($($G:ident/$v:ident/$i:tt),+) => {
        impl<$($G: Gen),+> Gen for ($($G,)+) {
            type Value = ($($G::Value,)+);

            fn generate(&self, rng: &mut SimRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                // Shrink one component at a time, holding the rest fixed.
                $(
                    for cand in self.$i.shrink(&value.$i) {
                        let mut next = value.clone();
                        next.$i = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_gen!(G0 / v0 / 0);
impl_tuple_gen!(G0 / v0 / 0, G1 / v1 / 1);
impl_tuple_gen!(G0 / v0 / 0, G1 / v1 / 1, G2 / v2 / 2);
impl_tuple_gen!(G0 / v0 / 0, G1 / v1 / 1, G2 / v2 / 2, G3 / v3 / 3);

// ---------------------------------------------------------------------------
// Vectors
// ---------------------------------------------------------------------------

/// A vector of `elem`-generated values with length uniform in
/// `[min_len, max_len]`. Shrinks by dropping halving-sized chunks (down to
/// `min_len`), then by shrinking elements in place.
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

    fn generate(&self, rng: &mut SimRng) -> Vec<G::Value> {
        let len = rng.range_inclusive(self.min_len as u64, self.max_len as u64) as usize;
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let len = value.len();

        // Phase 1: structural — drop chunks, biggest first (binary search
        // on length). An empty/minimal vector is the simplest candidate.
        if len > self.min_len {
            let mut chunk = (len - self.min_len).max(1);
            while chunk >= 1 {
                let mut start = 0;
                while start < len && out.len() < 64 {
                    let end = (start + chunk).min(len);
                    if len - (end - start) >= self.min_len {
                        let mut cand = Vec::with_capacity(len - (end - start));
                        cand.extend_from_slice(&value[..start]);
                        cand.extend_from_slice(&value[end..]);
                        out.push(cand);
                    }
                    start += chunk;
                }
                if chunk == 1 {
                    break;
                }
                chunk /= 2;
            }
        }

        // Phase 2: element-wise — first shrink candidate per position.
        for (i, v) in value.iter().enumerate() {
            if out.len() >= 128 {
                break;
            }
            if let Some(simpler) = self.elem.shrink(v).into_iter().next() {
                let mut cand = value.clone();
                cand[i] = simpler;
                out.push(cand);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Constants
// ---------------------------------------------------------------------------

/// Always produces `value` (useful inside tuples / `one_of`).
pub fn just<T: Clone + std::fmt::Debug + 'static>(value: T) -> JustGen<T> {
    JustGen { value }
}

/// See [`just`].
pub struct JustGen<T> {
    value: T,
}

impl<T: Clone + std::fmt::Debug + 'static> Gen for JustGen<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SimRng) -> T {
        self.value.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_generate_stays_in_range() {
        let g = range(-50i32, 100);
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            let v = g.generate(&mut rng);
            assert!((-50..=100).contains(&v));
        }
    }

    #[test]
    fn int_shrink_targets_zero() {
        let g = range(0u64, 1000);
        let c = g.shrink(&700);
        assert_eq!(c[0], 0);
        assert!(c.iter().all(|&v| v < 700));
        assert!(g.shrink(&0).is_empty());
    }

    #[test]
    fn negative_range_shrinks_toward_upper_bound_origin() {
        let g = range(-100i64, -10);
        let c = g.shrink(&-80);
        assert_eq!(c[0], -10, "origin clamps to the closest-to-zero bound");
        assert!(g.shrink(&-10).is_empty());
    }

    #[test]
    fn full_u64_range_generates() {
        let g = range(0u64, u64::MAX);
        let mut rng = SimRng::new(3);
        let a = g.generate(&mut rng);
        let b = g.generate(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn vec_shrink_proposes_shorter_first() {
        let g = vecs(range(0u8, 255), 0, 10);
        let v = vec![5u8, 6, 7, 8];
        let cands = g.shrink(&v);
        assert!(!cands.is_empty());
        assert!(cands[0].len() < v.len());
        // Every structural candidate is a subsequence-or-equal length.
        assert!(cands.iter().all(|c| c.len() <= v.len()));
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let g = vecs(range(0u8, 255), 2, 10);
        let v = vec![1u8, 2];
        assert!(g.shrink(&v).iter().all(|c| c.len() >= 2));
    }

    #[test]
    fn tuple_shrinks_componentwise() {
        let g = (range(0u32, 100), bools());
        let cands = g.shrink(&(40, true));
        assert!(cands.contains(&(0, true)));
        assert!(cands.contains(&(40, false)));
    }

    #[test]
    fn choice_shrinks_to_earlier_entries() {
        let g = choice(vec!["a", "b", "c"]);
        assert_eq!(g.shrink(&"c"), vec!["a", "b"]);
        assert!(g.shrink(&"a").is_empty());
    }

    #[test]
    fn one_of_generates_all_branches() {
        let g = one_of(vec![range(0u64, 0).boxed(), range(100u64, 100).boxed()]);
        let mut rng = SimRng::new(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(g.generate(&mut rng));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = vecs((range(0u64, 9), bools()), 0, 20);
        let a = g.generate(&mut SimRng::new(42));
        let b = g.generate(&mut SimRng::new(42));
        assert_eq!(a, b);
    }
}
