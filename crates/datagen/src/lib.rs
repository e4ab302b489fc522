//! Seeded synthetic dataset generators.
//!
//! The paper evaluates on four real datasets (Table IV): NIST \[19\],
//! UKDALE \[20\], DataPort \[21\] (smart-home energy) and the NYC Open Data
//! weather/collision data \[22\]. Those datasets are not redistributable
//! here, so this crate simulates them: deterministic, seeded generators
//! that match the published characteristics (number of sequences,
//! variables, distinct events, average instances per sequence) and — more
//! importantly — reproduce the two structural properties every experiment
//! relies on:
//!
//! 1. **temporal co-activation**: groups of appliances used together in
//!    daily routines, and weather extremes followed by collision spikes,
//!    so that frequent temporal patterns exist to be mined;
//! 2. **MI separation**: series inside a group share information, series
//!    across groups do not, so the correlation graph of A-HTPGM actually
//!    separates promising from unpromising series.
//!
//! See DESIGN.md ("Substitutions") for the full rationale.

mod city;
mod dataset;
mod energy;
mod random;

pub use city::{generate_city, CityConfig};
pub use dataset::{dataport_like, nist_like, smartcity_like, ukdale_like, Dataset};
pub use energy::{generate_energy, EnergyConfig};
pub use random::random_sequence_database;
