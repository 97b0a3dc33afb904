//! Per-rank distributed storage: the tiles one processor owns, each holding
//! a set of named fields with halos.
//!
//! This layer is deliberately ignorant of *how* tiles were assigned (that is
//! `mp-core`'s job); it just materializes storage for a given list of tile
//! coordinates over a [`TileGrid`].

use crate::halo::{HaloArray, MAX_DIMS};
use crate::shape::Region;
use crate::tile::TileGrid;

/// Declares one field stored on every tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Human-readable field name (e.g. `"u"`, `"rhs"`).
    pub name: String,
    /// Ghost width this field needs.
    pub halo: usize,
    /// A scratch field holds values only from a forward sweep to the
    /// backward sweep of the same dimension (an elimination's `C'`), and
    /// nothing else reads it. Each compiled sweep lays its storage out in
    /// its own order, lanes adjacent (DESIGN.md §3), so its tile-order
    /// accessors (`get`, `gather_into`, halo exchange) do not apply.
    pub scratch: bool,
}

impl FieldDef {
    /// A field stored in tile order, with `halo` ghost layers.
    pub fn new(name: &str, halo: usize) -> Self {
        FieldDef {
            name: name.to_string(),
            halo,
            scratch: false,
        }
    }

    /// A scratch field (the `scratch` flag): no ghost layers, laid out by
    /// each sweep in its own order.
    pub fn scratch(name: &str) -> Self {
        FieldDef {
            scratch: true,
            ..FieldDef::new(name, 0)
        }
    }
}

/// Storage for one tile: coordinates, its element region, and one
/// [`HaloArray`] per declared field.
#[derive(Debug, Clone, PartialEq)]
pub struct TileData {
    /// Tile-grid coordinate.
    pub coord: Vec<u64>,
    /// Element region in the global domain.
    pub region: Region,
    /// Field storage, parallel to the `FieldDef` list used at construction.
    pub fields: Vec<HaloArray>,
}

impl TileData {
    /// Field by index.
    pub fn field(&self, f: usize) -> &HaloArray {
        &self.fields[f]
    }

    /// Mutable field by index.
    pub fn field_mut(&mut self, f: usize) -> &mut HaloArray {
        &mut self.fields[f]
    }

    /// Borrow two distinct fields mutably at once (e.g. read `u`, write
    /// `rhs`).
    pub fn two_fields_mut(&mut self, a: usize, b: usize) -> (&mut HaloArray, &mut HaloArray) {
        assert_ne!(a, b);
        if a < b {
            let (lo, hi) = self.fields.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.fields.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }
}

/// Everything one rank stores: its tiles and the shared field declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStore {
    /// This rank's id.
    pub rank: u64,
    /// Field declarations (shared across tiles).
    pub field_defs: Vec<FieldDef>,
    /// Owned tiles, in the order given at construction.
    pub tiles: Vec<TileData>,
}

impl RankStore {
    /// Allocate storage for `rank` owning `tile_coords` over `grid`.
    pub fn allocate(
        rank: u64,
        grid: &TileGrid,
        tile_coords: &[Vec<u64>],
        field_defs: &[FieldDef],
    ) -> Self {
        let tiles = tile_coords
            .iter()
            .map(|coord| {
                let cu: Vec<usize> = coord.iter().map(|&c| c as usize).collect();
                let region = grid.tile_region(&cu);
                let fields = field_defs
                    .iter()
                    .map(|fd| HaloArray::zeros(&region.extent, fd.halo))
                    .collect();
                TileData {
                    coord: coord.clone(),
                    region,
                    fields,
                }
            })
            .collect();
        RankStore {
            rank,
            field_defs: field_defs.to_vec(),
            tiles,
        }
    }

    /// Initialize a field on all tiles from a global function of the element
    /// index.
    ///
    /// # Panics
    /// Panics if the domain has more than 8 dimensions.
    pub fn init_field(&mut self, f: usize, init: impl Fn(&[usize]) -> f64) {
        for tile in &mut self.tiles {
            let origin = &tile.region.origin;
            let d = origin.len();
            let mut g = [0usize; MAX_DIMS];
            tile.fields[f].for_each_interior_row_mut(|idx, row| {
                for k in 0..d {
                    g[k] = origin[k] + idx[k];
                }
                for v in row {
                    *v = init(&g[..d]);
                    g[d - 1] += 1;
                }
            });
        }
    }

    /// Scatter every tile's interior of field `f` into a global array
    /// (used by verification against serial runs).
    ///
    /// # Panics
    /// Panics if the domain has more than 8 dimensions.
    pub fn gather_into(&self, f: usize, global: &mut crate::array::ArrayD<f64>) {
        let d = global.dims().len();
        let mut strides = [0usize; MAX_DIMS];
        strides[..d].copy_from_slice(global.shape().strides());
        let out = global.as_mut_slice();
        for tile in &self.tiles {
            let origin = &tile.region.origin;
            tile.field(f).for_each_interior_row(|idx, row| {
                let at: usize = (0..d).map(|k| (origin[k] + idx[k]) * strides[k]).sum();
                out[at..at + row.len()].copy_from_slice(row);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayD;

    fn grid_4x4() -> TileGrid {
        TileGrid::new(&[8, 8], &[4, 4])
    }

    #[test]
    fn allocate_shapes() {
        let grid = grid_4x4();
        let coords = vec![vec![0u64, 0], vec![1, 2], vec![3, 3]];
        let fields = vec![FieldDef::new("u", 1), FieldDef::new("rhs", 0)];
        let store = RankStore::allocate(5, &grid, &coords, &fields);
        assert_eq!(store.rank, 5);
        assert_eq!(store.tiles.len(), 3);
        for t in &store.tiles {
            assert_eq!(t.fields.len(), 2);
            assert_eq!(t.fields[0].interior(), &[2, 2]);
            assert_eq!(t.fields[0].halo(), 1);
            assert_eq!(t.fields[1].halo(), 0);
        }
    }

    #[test]
    fn init_and_gather_roundtrip() {
        let grid = grid_4x4();
        // One "rank" owning all 16 tiles — gather must reconstruct exactly.
        let coords: Vec<Vec<u64>> = (0..4u64)
            .flat_map(|a| (0..4u64).map(move |b| vec![a, b]))
            .collect();
        let fields = vec![FieldDef::new("u", 1)];
        let mut store = RankStore::allocate(0, &grid, &coords, &fields);
        store.init_field(0, |g| (g[0] * 100 + g[1]) as f64);
        let mut global = ArrayD::zeros(&[8, 8]);
        store.gather_into(0, &mut global);
        for i in 0..8usize {
            for j in 0..8usize {
                assert_eq!(global.get(&[i, j]), (i * 100 + j) as f64);
            }
        }
    }

    #[test]
    fn two_fields_mut_disjoint() {
        let grid = grid_4x4();
        let fields = vec![FieldDef::new("a", 0), FieldDef::new("b", 0)];
        let mut store = RankStore::allocate(0, &grid, &[vec![0, 0]], &fields);
        let (a, b) = store.tiles[0].two_fields_mut(0, 1);
        a.set_i(&[0, 0], 1.0);
        b.set_i(&[0, 0], 2.0);
        assert_eq!(store.tiles[0].field(0).get_i(&[0, 0]), 1.0);
        assert_eq!(store.tiles[0].field(1).get_i(&[0, 0]), 2.0);
        // reversed order works too
        let (b2, a2) = store.tiles[0].two_fields_mut(1, 0);
        b2.set_i(&[1, 1], 3.0);
        a2.set_i(&[1, 1], 4.0);
        assert_eq!(store.tiles[0].field(1).get_i(&[1, 1]), 3.0);
        assert_eq!(store.tiles[0].field(0).get_i(&[1, 1]), 4.0);
    }

    #[test]
    #[should_panic]
    fn two_fields_mut_same_index_panics() {
        let grid = grid_4x4();
        let fields = vec![FieldDef::new("a", 0)];
        let mut store = RankStore::allocate(0, &grid, &[vec![0, 0]], &fields);
        let _ = store.tiles[0].two_fields_mut(0, 0);
    }
}
