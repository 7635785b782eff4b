//! Core floorplan modelling for the Boreas thermal pipeline.
//!
//! The paper simulates a desktop client processor based on an Intel
//! Skylake core (scaled to 7 nm) and inherits its floorplan from the
//! HotGauge publication. This crate provides:
//!
//! * [`Rect`] and [`UnitKind`] / [`FunctionalUnit`] — geometry and identity
//!   of each architectural block (IFU, ROB, ALUs, FPU, caches, …);
//! * [`Floorplan`] — a validated, non-overlapping arrangement of units,
//!   including [`Floorplan::skylake_like`], the default plan used by every
//!   experiment in this reproduction;
//! * [`grid`] — rasterisation of the floorplan onto the regular cell grid
//!   shared by the power and thermal models;
//! * [`placement`] — k-means clustering of observed hotspot locations into
//!   candidate thermal-sensor sites, the methodology HotGauge (and §III-A
//!   of the paper) uses to place sensors, plus the fixed seven-sensor
//!   configuration studied in Fig. 5.
//!
//! # Examples
//!
//! ```
//! use boreas_floorplan::{Floorplan, UnitKind};
//!
//! let plan = Floorplan::skylake_like();
//! let fpu = plan.unit(UnitKind::Fpu).expect("skylake plan has an FPU");
//! assert!(fpu.rect.area().value() > 0.0);
//! assert!(plan.validate().is_ok());
//! ```

pub mod grid;
pub mod placement;
pub mod plan;
pub mod rect;
pub mod unit;

pub use grid::{CellIndex, Grid, GridSpec};
pub use placement::SensorSite;
pub use plan::Floorplan;
pub use rect::Rect;
pub use unit::{FunctionalUnit, UnitKind};
