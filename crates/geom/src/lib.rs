//! # manet-geom — 2-D geometry and spatial indexing
//!
//! Positions, the rectangular simulation area, and a uniform spatial hash
//! grid used by the radio layer to find the nodes inside a transmission
//! range without scanning the whole population.

pub mod grid;
pub mod point;
pub mod rect;

pub use grid::SpatialGrid;
pub use point::{Point, Vector};
pub use rect::Rect;
