//! Asset-dynamics models.
//!
//! Each model owns its parameters and knows how to simulate itself; the
//! pricing methods in [`crate::methods`] are generic over the relevant
//! model where possible and specialised where the numerics demand it.

mod black_scholes;
mod heston;
pub(crate) mod local_vol;
mod multi_bs;
mod vasicek;

pub use black_scholes::BlackScholes;
pub use heston::Heston;
pub use local_vol::LocalVol;
pub use multi_bs::MultiBlackScholes;
pub use vasicek::Vasicek;
