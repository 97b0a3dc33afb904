//! # mp-core — generalized multipartitioning
//!
//! A from-scratch implementation of *"Generalized Multipartitioning for
//! Multi-dimensional Arrays"* (Darte, Chavarría-Miranda, Fowler,
//! Mellor-Crummey; IPPS 2002).
//!
//! Multipartitioning assigns every processor several tiles of a
//! `d`-dimensional array such that line-sweep computations along *any*
//! dimension keep all processors busy in every step (**balance**) and each
//! directional shift talks to exactly one partner (**neighbor**). This crate
//! implements the whole pipeline:
//!
//! 1. [`cost`] — the §3.1 communication cost model (`λ_i` weights,
//!    per-sweep and total predicted times).
//! 2. [`partition`] — validity, Lemma 1, and the Figure 2 generator of
//!    elementary partitionings.
//! 3. [`search`] — the optimal-partitioning search and the §6 drop-back
//!    processor-count search.
//! 4. [`modmap`] — the §4 modular-mapping construction (Figure 3) with
//!    load-balance/neighbor verifiers.
//! 5. [`multipart`] + [`plan`] — the user-facing [`multipart::Multipartitioning`]
//!    object and executable sweep schedules.
//!
//! ## Quick example
//!
//! ```
//! use mp_core::prelude::*;
//!
//! // 3-D array of 102³ elements on 50 processors (not a perfect square —
//! // impossible for classic diagonal multipartitioning).
//! let model = CostModel::origin2000_like();
//! let mp = Multipartitioning::optimal(50, &[102, 102, 102], &model);
//! let mut shape = mp.gammas().to_vec();
//! shape.sort();
//! assert_eq!(shape, vec![5, 10, 10]); // the partitioning from the paper's §6
//! mp.verify().unwrap(); // balance + neighbor properties, checked brute force
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod cost;
pub mod factor;
pub mod modmap;
pub mod multipart;
pub mod partition;
pub mod plan;
pub mod search;
pub mod topology;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::analysis::{analyze, Analysis};
    pub use crate::cost::{BandwidthScaling, CostModel};
    pub use crate::factor::Factorization;
    pub use crate::modmap::ModularMapping;
    pub use crate::multipart::{Direction, Multipartitioning, TileCoord};
    pub use crate::partition::{elementary_partitionings, Partitioning};
    pub use crate::plan::SweepPlan;
    pub use crate::search::{drop_back_search, optimal_for, optimal_partitioning, SearchResult};
    pub use crate::topology::{
        best_mapping_for_topology, shift_hop_stats, GrayCodeMapping, Topology,
    };
}
