//! # mp-grid — dense multi-dimensional array substrate
//!
//! From-scratch storage layer for the multipartitioning runtime: row-major
//! [`array::ArrayD`] arrays, [`tile::TileGrid`] geometry (cutting a global
//! domain into the `γ_1 × … × γ_d` tile grid chosen by `mp-core`),
//! [`halo::HaloArray`] ghost-layer storage for stencil phases, and
//! [`dist::RankStore`] per-rank tile storage.
//!
//! The crate is independent of the partitioning theory (it never decides
//! *who owns what*) and of the runtime (it never communicates); it only
//! provides geometry, storage, and pack/unpack primitives that both build on.

#![warn(missing_docs)]

pub mod array;
pub mod codec;
pub mod dist;
pub mod halo;
pub mod lines;
pub mod shape;
pub mod tile;

pub use array::ArrayD;
pub use codec::{decode_rank_store, encode_rank_store, CodecError};
pub use dist::{FieldDef, RankStore, TileData};
pub use halo::{HaloArray, HaloDirPlan, HaloPlan};
pub use lines::{LaneField, Lanes};
pub use shape::{Region, Shape, Side};
pub use tile::TileGrid;
