//! Offline shim for `proptest`: a deterministic property-testing harness
//! covering exactly the API surface this workspace uses.
//!
//! Differences from upstream proptest, by design:
//!
//! * **No shrinking.** A failing case panics with the generated inputs
//!   printed; reproduction is via the deterministic per-test seed.
//! * **Deterministic.** Each `proptest!` test derives its RNG seed from
//!   the test's name (override with `PROPTEST_SEED`), so failures
//!   reproduce run-to-run and machine-to-machine.
//! * **Regex strategies** support the subset actually used in-tree:
//!   concatenations of literal characters and character classes
//!   (`[a-z0-9_-]`, ranges, escapes) with `{lo,hi}` quantifiers.

#![warn(missing_docs)]

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed directly.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Derive a seed from a test name (FNV-1a), unless `PROPTEST_SEED`
    /// overrides it.
    pub fn from_name(name: &str) -> Self {
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(seed) = s.parse::<u64>() {
                return TestRng::new(seed);
            }
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng::new(h)
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform usize in `lo..hi` (half-open).
    pub fn usize_in(&mut self, r: Range<usize>) -> usize {
        assert!(r.start < r.end, "empty range");
        r.start + self.below((r.end - r.start) as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Core trait
// ---------------------------------------------------------------------------

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Reject generated values failing `pred` (regenerates, bounded).
    fn prop_filter<F>(self, whence: impl fmt::Display, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason: whence.to_string(),
            pred,
        }
    }

    /// Build a recursive strategy: `recurse` receives a strategy for the
    /// recursive positions and returns the composite level. `depth`
    /// bounds the nesting; `_desired_size`/`_expected_branch` are
    /// accepted for upstream signature compatibility.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf: BoxedStrategy<Self::Value> = self.boxed();
        let mut strat = leaf.clone();
        for level in 0..depth {
            let composite = Arc::new(recurse(strat));
            let leaf = leaf.clone();
            // Deeper levels recurse with decreasing probability so the
            // expected size stays bounded.
            let p_recurse = 0.6f64.powi(level as i32 + 1).max(0.25);
            strat = BoxedStrategy(Arc::new(move |rng: &mut TestRng| {
                if rng.next_f64() < p_recurse {
                    composite.gen_value(rng)
                } else {
                    leaf.gen_value(rng)
                }
            }));
        }
        strat
    }

    /// Type-erase into a cloneable boxed strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        let inner = self;
        BoxedStrategy(Arc::new(move |rng: &mut TestRng| inner.gen_value(rng)))
    }
}

/// Type-erased, cheaply cloneable strategy.
pub struct BoxedStrategy<T>(Arc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

impl<T> fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------------

/// Always generates a clone of the held value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                let off = ((rng.next_u64() as u128) % span) as $t;
                self.start.wrapping_add(off)
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i32, i64);

/// `any::<T>()` marker — arbitrary values of a primitive type.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Arbitrary values of `T` (upstream's `any::<T>()`).
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn gen_value(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<u8> {
    type Value = u8;
    fn gen_value(&self, rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Strategy for Any<u64> {
    type Value = u64;
    fn gen_value(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        // Mix well-scaled finite values with raw bit patterns (which can
        // be huge, subnormal, infinite or NaN) like upstream `any::<f64>()`.
        match rng.below(8) {
            0 => f64::from_bits(rng.next_u64()),
            1 => 0.0,
            2 => -0.0,
            _ => {
                let mag = 10f64.powf(rng.next_f64() * 20.0 - 10.0);
                let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
                sign * mag * rng.next_f64()
            }
        }
    }
}

// --- regex-subset string strategies ----------------------------------------

/// One parsed pattern element: a character class with a repetition range.
#[derive(Debug, Clone)]
struct PatternPiece {
    chars: Vec<char>,
    lo: usize,
    hi: usize,
}

fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars>) -> Vec<char> {
    let mut out = Vec::new();
    loop {
        let c = chars.next().expect("unterminated character class");
        if c == ']' {
            break;
        }
        let c = if c == '\\' {
            match chars.next().expect("dangling escape") {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                other => other,
            }
        } else {
            c
        };
        // Range `a-z` iff '-' is followed by a non-']' char.
        if chars.peek() == Some(&'-') {
            let mut ahead = chars.clone();
            ahead.next(); // consume '-'
            match ahead.peek() {
                Some(&end) if end != ']' => {
                    chars.next(); // '-'
                    let end = chars.next().unwrap();
                    let (a, b) = (c as u32, end as u32);
                    assert!(a <= b, "inverted range in class");
                    for u in a..=b {
                        if let Some(ch) = char::from_u32(u) {
                            out.push(ch);
                        }
                    }
                    continue;
                }
                _ => {}
            }
        }
        out.push(c);
    }
    assert!(!out.is_empty(), "empty character class");
    out
}

fn parse_pattern(pat: &str) -> Vec<PatternPiece> {
    let mut pieces = Vec::new();
    let mut chars = pat.chars().peekable();
    while let Some(c) = chars.next() {
        let class = match c {
            '[' => parse_class(&mut chars),
            '\\' => vec![match chars.next().expect("dangling escape") {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                other => other,
            }],
            other => vec![other],
        };
        let (lo, hi) = if chars.peek() == Some(&'{') {
            chars.next();
            let mut digits = String::new();
            let mut lo = None;
            loop {
                match chars.next().expect("unterminated quantifier") {
                    '}' => break,
                    ',' => {
                        lo = Some(digits.parse::<usize>().expect("bad quantifier"));
                        digits.clear();
                    }
                    d => digits.push(d),
                }
            }
            let last = digits.parse::<usize>().expect("bad quantifier");
            match lo {
                Some(l) => (l, last),
                None => (last, last),
            }
        } else {
            (1, 1)
        };
        assert!(lo <= hi, "inverted quantifier");
        pieces.push(PatternPiece {
            chars: class,
            lo,
            hi,
        });
    }
    pieces
}

impl Strategy for &'static str {
    type Value = String;
    fn gen_value(&self, rng: &mut TestRng) -> String {
        let pieces = parse_pattern(self);
        let mut out = String::new();
        for p in &pieces {
            let n = if p.lo == p.hi {
                p.lo
            } else {
                rng.usize_in(p.lo..p.hi + 1)
            };
            for _ in 0..n {
                out.push(p.chars[rng.usize_in(0..p.chars.len())]);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn gen_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// Strategy adapter produced by [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn gen_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.gen_value(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({}) rejected 1000 candidates in a row",
            self.reason
        );
    }
}

/// Uniform choice between boxed strategies (backs `prop_oneof!`).
pub fn one_of<T>(options: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
    OneOf { options }
}

/// Strategy choosing uniformly among alternatives.
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        let i = rng.usize_in(0..self.options.len());
        self.options[i].gen_value(rng)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.gen_value(rng),)+)
            }
        }
    };
}
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, G);

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vector of values from `element`, with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.usize_in(self.len.clone());
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Config / errors / macros
// ---------------------------------------------------------------------------

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Outcome of one generated case.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is re-drawn.
    Reject,
    /// A `prop_assert*!` failed with the given message.
    Fail(String),
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, one_of, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof,
        proptest, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Assert inside a `proptest!` body; failure aborts the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// Inequality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}` (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Reject the current case, drawing fresh inputs instead.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategy arms of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                #[allow(unused_imports)]
                use $crate::Strategy as _;
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                let mut accepted: u32 = 0;
                let mut rejected: u32 = 0;
                while accepted < cfg.cases {
                    $(let $arg = ($strat).gen_value(&mut rng);)+
                    let result = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body;
                        ::std::result::Result::Ok(())
                    })();
                    match result {
                        ::std::result::Result::Ok(()) => accepted += 1,
                        ::std::result::Result::Err($crate::TestCaseError::Reject) => {
                            rejected += 1;
                            if rejected > 20 * cfg.cases + 1000 {
                                panic!(
                                    "proptest {}: too many prop_assume! rejections",
                                    stringify!($name)
                                );
                            }
                        }
                        ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            let inputs: ::std::vec::Vec<::std::string::String> = vec![
                                $(format!("  {} = {:?}", stringify!($arg), &$arg)),+
                            ];
                            panic!(
                                "proptest {} failed at accepted case {}:\n{}\ninputs:\n{}",
                                stringify!($name),
                                accepted,
                                msg,
                                inputs.join("\n")
                            );
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_subset_generates_within_spec() {
        let mut rng = TestRng::new(1);
        for _ in 0..200 {
            let s = "[a-z]{1,6}".gen_value(&mut rng);
            assert!((1..=6).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = "[a-zA-Z][a-zA-Z0-9_]{0,6}".gen_value(&mut rng);
            assert!(!t.is_empty() && t.len() <= 7);
            assert!(t.chars().next().unwrap().is_ascii_alphabetic());
            let p = "[ -~\n]{0,120}".gen_value(&mut rng);
            assert!(p.len() <= 120);
            assert!(p.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
            // Trailing '-' in a class is a literal.
            let d = "[a-c/-]{8}".gen_value(&mut rng);
            assert!(d.chars().all(|c| "abc/-".contains(c)));
        }
    }

    #[test]
    fn ranges_and_tuples() {
        let mut rng = TestRng::new(2);
        for _ in 0..1000 {
            let (a, b) = (1usize..5, -2.0f64..2.0).gen_value(&mut rng);
            assert!((1..5).contains(&a));
            assert!((-2.0..2.0).contains(&b));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut rng = TestRng::new(3);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(s.gen_value(&mut rng) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn recursive_strategy_is_depth_bounded() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(v) => 1 + v.iter().map(depth).max().unwrap_or(0),
            }
        }
        fn leaf_sum(t: &Tree) -> u64 {
            match t {
                Tree::Leaf(b) => u64::from(*b),
                Tree::Node(v) => v.iter().map(leaf_sum).sum(),
            }
        }
        let strat = any::<u8>()
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
            });
        let mut rng = TestRng::new(4);
        let mut max_seen = 0;
        let mut payload_sum = 0u64;
        for _ in 0..300 {
            let t = strat.gen_value(&mut rng);
            max_seen = max_seen.max(depth(&t));
            payload_sum += leaf_sum(&t);
        }
        assert!(max_seen >= 1, "recursion never taken");
        assert!(max_seen <= 3, "depth bound violated: {max_seen}");
        assert!(payload_sum > 0, "leaf payloads never populated");
    }

    #[test]
    fn deterministic_given_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn self_hosted_addition_commutes(a in 0u32..1000, b in 0u32..1000) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn assume_rejects_and_redraws(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0, "n = {n}");
        }
    }
}
