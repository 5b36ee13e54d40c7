//! The registry's problems, the generator the codec and script tests
//! share (`#[path = "common/registry.rs"] mod registry;`).

use pricing::PremiaProblem;

const MODELS: [&str; 5] = [
    "BlackScholes1dim",
    "BlackScholesNdim",
    "LocalVol1dim",
    "Heston1dim",
    "Vasicek1dim",
];
const OPTIONS: [&str; 10] = [
    "CallEuro",
    "PutEuro",
    "CallDownOut",
    "PutAmer",
    "PutBasket",
    "PutBasketAmer",
    "ZCBond",
    "CallBond",
    "CallMaxBermuda",
    "NettingSetForward",
];
const METHODS: [&str; 9] = [
    "CF",
    "FD_CrankNicolson",
    "TR_CoxRossRubinstein",
    "MC_Standard",
    "MC_Quasi",
    "MC_AM_LongstaffSchwartz",
    "MC_AM_Alfonsi_LongstaffSchwartz",
    "MC_BSDE_LabartLelong",
    "MC_XVA_CVA",
];

/// All 450 registry triples, priceable or not: the codec does not care.
pub fn registry() -> Vec<PremiaProblem> {
    let mut all = Vec::new();
    for m in MODELS {
        for o in OPTIONS {
            for me in METHODS {
                all.push(PremiaProblem::create(m, o, me).unwrap());
            }
        }
    }
    assert_eq!(all.len(), 450);
    all
}
