//! Toolbox objects: the `PremiaModel` class exposed to scripts (§3.3).

use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem, PricingResult, Specs};

/// The interpreter-level `PremiaModel` instance: built incrementally by
/// `P.set_asset[...]` / `set_model` / `set_option` / `set_method`, then
/// `P.compute[]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PremiaObj {
    /// Asset class (`"equity"` / `"rates"`), set by `set_asset`.
    pub asset: Option<String>,
    /// Model choice, set by `set_model`.
    pub model: Option<ModelSpec>,
    /// Product choice, set by `set_option`.
    pub option: Option<OptionSpec>,
    /// Method choice, set by `set_method`.
    pub method: Option<MethodSpec>,
    /// Result of the last `compute[]`, if any.
    pub result: Option<PricingResult>,
}

impl PremiaObj {
    /// `premia_create()`: an empty instance awaiting its setters.
    pub fn new() -> Self {
        PremiaObj::default()
    }

    /// A fully specified object becomes a `PremiaProblem`.
    pub fn to_problem(&self) -> Result<PremiaProblem, String> {
        Ok(PremiaProblem {
            asset: self
                .asset
                .clone()
                .ok_or_else(|| "PremiaModel: asset not set".to_string())?,
            model: self
                .model
                .clone()
                .ok_or_else(|| "PremiaModel: model not set".to_string())?,
            option: self
                .option
                .clone()
                .ok_or_else(|| "PremiaModel: option not set".to_string())?,
            method: self
                .method
                .clone()
                .ok_or_else(|| "PremiaModel: method not set".to_string())?,
        })
    }

    /// Rehydrate from a decoded `PremiaProblem` (the slave-side path): the
    /// problem's parts move in.
    pub fn from_problem(p: PremiaProblem) -> Self {
        PremiaObj {
            asset: Some(p.asset),
            model: Some(p.model),
            option: Some(p.option),
            method: Some(p.method),
            result: None,
        }
    }

    /// `P.compute[]`: prices the object's own parts, borrowed. The same
    /// checks as [`PremiaObj::to_problem`], in the same order.
    pub fn compute(&mut self) -> Result<&PricingResult, String> {
        let specs = match (&self.asset, &self.model, &self.option, &self.method) {
            (Some(_), Some(model), Some(option), Some(method)) => Specs {
                model,
                option,
                method,
            },
            _ => return Err(self.to_problem().expect_err("a part is missing")),
        };
        let r = specs.compute().map_err(|e| e.to_string())?;
        Ok(self.result.insert(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_build_like_section_3_3() {
        let mut p = PremiaObj::new();
        assert!(p.to_problem().is_err());
        p.asset = Some("equity".into());
        p.model = Some(ModelSpec::by_name("BlackScholes1dim").unwrap());
        p.option = Some(OptionSpec::by_name("CallEuro").unwrap());
        assert!(p.to_problem().is_err()); // method missing
        p.method = Some(MethodSpec::by_name("CF").unwrap());
        let problem = p.to_problem().unwrap();
        assert_eq!(problem.label(), "BlackScholes1dim/CallEuro/CF");
        let r = p.compute().unwrap();
        assert!((r.price - 10.4506).abs() < 1e-3);
        assert!(p.result.is_some());
    }

    #[test]
    fn round_trip_through_problem() {
        let problem =
            PremiaProblem::create("Heston1dim", "PutAmer", "MC_AM_LongstaffSchwartz").unwrap();
        let obj = PremiaObj::from_problem(problem.clone());
        assert_eq!(obj.to_problem().unwrap(), problem);
    }
}
