//! Financial products (contingent claims) and their payoffs.
//!
//! The paper's realistic portfolio (§4.3) is composed of five product
//! classes on equities: plain vanilla calls, down-and-out barrier calls,
//! high-dimensional basket puts, local-volatility calls, and American puts
//! (single-name and basket). The types here describe the contract terms;
//! the numerical methods live in [`crate::methods`].

mod payoff;

pub(crate) use payoff::{call_payoff, put_payoff, OptionRight};

/// Exercise style of a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exercise {
    /// Exercisable only at maturity.
    European,
    /// Exercisable at any time up to maturity.
    American,
}

/// A single-underlying vanilla option contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vanilla {
    /// Call or put.
    pub(crate) right: OptionRight,
    /// Strike price.
    pub strike: f64,
    /// Maturity in years.
    pub(crate) maturity: f64,
    /// European or American exercise.
    pub(crate) exercise: Exercise,
}

impl Vanilla {
    /// A European call with the given strike and maturity.
    pub fn european_call(strike: f64, maturity: f64) -> Self {
        Vanilla {
            right: OptionRight::Call,
            strike,
            maturity,
            exercise: Exercise::European,
        }
    }

    /// A European put with the given strike and maturity.
    pub fn european_put(strike: f64, maturity: f64) -> Self {
        Vanilla {
            right: OptionRight::Put,
            strike,
            maturity,
            exercise: Exercise::European,
        }
    }

    /// An American put with the given strike and maturity.
    pub fn american_put(strike: f64, maturity: f64) -> Self {
        Vanilla {
            right: OptionRight::Put,
            strike,
            maturity,
            exercise: Exercise::American,
        }
    }

    /// Parameter sanity checks; `Err` describes the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.strike > 0.0) {
            return Err("strike must be positive".into());
        }
        if !(self.maturity > 0.0) {
            return Err("maturity must be positive".into());
        }
        Ok(())
    }

    /// Intrinsic value at spot `s`.
    pub(crate) fn payoff(&self, s: f64) -> f64 {
        match self.right {
            OptionRight::Call => call_payoff(s, self.strike),
            OptionRight::Put => put_payoff(s, self.strike),
        }
    }
}

/// A continuously monitored down-and-out barrier option: knocked out
/// when the spot touches the barrier from above (`barrier < spot`), the
/// §4.3 "down and out call".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Barrier {
    /// Call or put.
    pub(crate) right: OptionRight,
    /// Strike price.
    pub(crate) strike: f64,
    /// Barrier level.
    pub(crate) barrier: f64,
    /// Maturity in years.
    pub(crate) maturity: f64,
    /// Paid immediately on knock-out (0 for the paper's products).
    pub(crate) rebate: f64,
}

impl Barrier {
    /// §4.3's product: down-and-out call.
    pub fn down_out_call(strike: f64, barrier: f64, maturity: f64) -> Self {
        Barrier {
            right: OptionRight::Call,
            strike,
            barrier,
            maturity,
            rebate: 0.0,
        }
    }

    /// Parameter sanity checks; `Err` describes the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.strike > 0.0 && self.barrier > 0.0 && self.maturity > 0.0) {
            return Err("strike, barrier and maturity must be positive".into());
        }
        if self.rebate < 0.0 {
            return Err("rebate must be non-negative".into());
        }
        Ok(())
    }

    /// Is the option already knocked out at spot `s`?
    pub(crate) fn knocked_out(&self, s: f64) -> bool {
        s <= self.barrier
    }

    /// Terminal payoff assuming the barrier was never touched.
    pub(crate) fn payoff(&self, s: f64) -> f64 {
        match self.right {
            OptionRight::Call => call_payoff(s, self.strike),
            OptionRight::Put => put_payoff(s, self.strike),
        }
    }
}

/// A basket option on the arithmetic average of `dim` assets —
/// §4.3's 40-dimensional European puts and 7-dimensional American puts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasketOption {
    /// Call or put.
    right: OptionRight,
    /// Strike price.
    pub(crate) strike: f64,
    /// Maturity in years.
    pub(crate) maturity: f64,
    /// European or American exercise.
    pub(crate) exercise: Exercise,
}

impl BasketOption {
    /// A European put with the given strike and maturity.
    pub fn european_put(strike: f64, maturity: f64) -> Self {
        BasketOption {
            right: OptionRight::Put,
            strike,
            maturity,
            exercise: Exercise::European,
        }
    }

    /// An American put with the given strike and maturity.
    pub fn american_put(strike: f64, maturity: f64) -> Self {
        BasketOption {
            right: OptionRight::Put,
            strike,
            maturity,
            exercise: Exercise::American,
        }
    }

    /// Parameter sanity checks; `Err` describes the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.strike > 0.0 && self.maturity > 0.0) {
            return Err("strike and maturity must be positive".into());
        }
        Ok(())
    }

    /// Payoff on the arithmetic average of the terminal asset prices.
    pub(crate) fn payoff(&self, spots: &[f64]) -> f64 {
        let avg = spots.iter().sum::<f64>() / spots.len() as f64;
        match self.right {
            OptionRight::Call => call_payoff(avg, self.strike),
            OptionRight::Put => put_payoff(avg, self.strike),
        }
    }
}

/// A call on the **maximum** of `dim` assets — the multi-dimensional
/// Bermudan benchmark of Doan et al. 2008 (and the classic
/// Broadie–Glasserman max-call test case). Bermudan exercise is the
/// discrete grid the LSM method prices on, so the type carries the
/// `American` exercise flag like [`BasketOption`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxCall {
    /// Strike price.
    pub(crate) strike: f64,
    /// Maturity in years.
    pub(crate) maturity: f64,
    /// European or American/Bermudan exercise.
    pub(crate) exercise: Exercise,
}

impl MaxCall {
    /// A Bermudan max-call with the given strike and maturity.
    pub fn bermudan(strike: f64, maturity: f64) -> Self {
        MaxCall {
            strike,
            maturity,
            exercise: Exercise::American,
        }
    }

    /// Parameter sanity checks; `Err` describes the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.strike > 0.0 && self.maturity > 0.0) {
            return Err("strike and maturity must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MaxCall {
        /// Payoff on the maximum of the terminal asset prices.
        fn payoff(&self, spots: &[f64]) -> f64 {
            let best = spots.iter().fold(f64::NEG_INFINITY, |a, &s| a.max(s));
            call_payoff(best, self.strike)
        }
    }

    #[test]
    fn vanilla_payoffs() {
        let c = Vanilla::european_call(100.0, 1.0);
        assert_eq!(c.payoff(120.0), 20.0);
        assert_eq!(c.payoff(80.0), 0.0);
        let p = Vanilla::european_put(100.0, 1.0);
        assert_eq!(p.payoff(80.0), 20.0);
        assert_eq!(p.payoff(120.0), 0.0);
    }

    #[test]
    fn american_put_constructor() {
        let a = Vanilla::american_put(90.0, 2.0);
        assert_eq!(a.exercise, Exercise::American);
        assert_eq!(a.right, OptionRight::Put);
    }

    #[test]
    fn barrier_knockout_logic() {
        let b = Barrier::down_out_call(100.0, 80.0, 1.0);
        assert!(b.knocked_out(80.0));
        assert!(b.knocked_out(75.0));
        assert!(!b.knocked_out(81.0));
    }

    #[test]
    fn basket_payoff_uses_average() {
        let b = BasketOption::european_put(100.0, 1.0);
        assert_eq!(b.payoff(&[90.0, 110.0]), 0.0); // avg 100
        assert_eq!(b.payoff(&[80.0, 100.0]), 10.0); // avg 90
    }

    #[test]
    fn max_call_payoff_uses_best_asset() {
        let m = MaxCall::bermudan(100.0, 1.0);
        assert_eq!(m.payoff(&[90.0, 110.0, 95.0]), 10.0);
        assert_eq!(m.payoff(&[90.0, 95.0]), 0.0);
        assert_eq!(m.exercise, Exercise::American);
    }

    #[test]
    fn validation() {
        assert!(Vanilla::european_call(0.0, 1.0).validate().is_err());
        assert!(Vanilla::european_call(100.0, -1.0).validate().is_err());
        assert!(Barrier::down_out_call(100.0, 80.0, 1.0).validate().is_ok());
        let mut b = Barrier::down_out_call(100.0, 80.0, 1.0);
        b.rebate = -1.0;
        assert!(b.validate().is_err());
        assert!(BasketOption::european_put(100.0, 0.0).validate().is_err());
    }
}
