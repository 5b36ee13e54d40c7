//! Elementary payoff functions.

/// Call or put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OptionRight {
    /// Call.
    Call,
    /// Put.
    Put,
}

impl OptionRight {
    /// +1 for calls, -1 for puts — the sign flip in Black–Scholes
    /// formulas.
    pub(crate) fn sign(&self) -> f64 {
        match self {
            OptionRight::Call => 1.0,
            OptionRight::Put => -1.0,
        }
    }
}

/// `(s - k)⁺`.
#[inline]
pub(crate) fn call_payoff(s: f64, k: f64) -> f64 {
    (s - k).max(0.0)
}

/// `(k - s)⁺`.
#[inline]
pub(crate) fn put_payoff(s: f64, k: f64) -> f64 {
    (k - s).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signs() {
        assert_eq!(OptionRight::Call.sign(), 1.0);
        assert_eq!(OptionRight::Put.sign(), -1.0);
    }

    #[test]
    fn payoffs_nonnegative() {
        for s in [0.0, 50.0, 100.0, 150.0] {
            assert!(call_payoff(s, 100.0) >= 0.0);
            assert!(put_payoff(s, 100.0) >= 0.0);
        }
    }

    #[test]
    fn put_call_intrinsic_parity() {
        // call - put = s - k pointwise.
        for s in [10.0, 90.0, 100.0, 250.0] {
            assert!((call_payoff(s, 100.0) - put_payoff(s, 100.0) - (s - 100.0)).abs() < 1e-12);
        }
    }
}
