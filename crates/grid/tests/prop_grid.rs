//! Randomized property tests for the storage substrate: codec round trips
//! and fuzzed corruption, tile-grid coverage, halo line access, and the
//! row-walking face, ghost and interior copies against per-element
//! indexing.

use mp_grid::codec::{decode_halo, decode_rank_store, encode_halo, encode_rank_store, ByteReader};
use mp_grid::{FieldDef, HaloArray, RankStore, Shape, Side, TileGrid};
use mp_testkit::{cases, Rng};

fn small_dims(rng: &mut Rng) -> Vec<usize> {
    let d = rng.usize_in(1, 3);
    (0..d).map(|_| rng.usize_in(1, 5)).collect()
}

#[test]
fn array_codec_roundtrip() {
    cases(0xc0de, 64, |rng| {
        let dims = small_dims(rng);
        let mut h = HaloArray::zeros(&dims, rng.usize_in(0, 2));
        for v in h.raw_mut() {
            *v = f64::from_bits(rng.next_u64() & 0x7FEF_FFFF_FFFF_FFFF); // finite values
        }
        let mut buf = Vec::new();
        encode_halo(&h, &mut buf);
        let back = decode_halo(&mut ByteReader::new(&buf)).unwrap();
        for (x, y) in h.raw().iter().zip(back.raw()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    });
}

#[test]
fn rank_store_codec_fuzzed_truncation() {
    cases(0x7241, 64, |rng| {
        let grid = TileGrid::new(&[6, 6], &[2, 3]);
        let store = RankStore::allocate(
            1,
            &grid,
            &[vec![0, 0], vec![1, 2]],
            &[FieldDef::new("u", 1)],
        );
        let raw = encode_rank_store(&store);
        let cut = rng.usize_in(0, raw.len());
        let r = decode_rank_store(&raw[..cut]);
        if cut < raw.len() {
            assert!(
                r.is_err(),
                "truncated decode must fail (cut {cut}/{})",
                raw.len()
            );
        } else {
            assert_eq!(r.unwrap(), store);
        }
    });
}

#[test]
fn rank_store_codec_bitflip_never_panics() {
    cases(0xb17f, 64, |rng| {
        let grid = TileGrid::new(&[4, 4], &[2, 2]);
        let store = RankStore::allocate(0, &grid, &[vec![1, 1]], &[FieldDef::new("u", 0)]);
        let mut raw = encode_rank_store(&store);
        let idx = rng.usize_in(0, raw.len() - 1);
        raw[idx] ^= 1 << rng.usize_in(0, 7);
        // Any outcome is fine except a panic; if it decodes, basic shape
        // invariants must still hold.
        if let Ok(back) = decode_rank_store(&raw) {
            for t in &back.tiles {
                assert_eq!(t.fields.len(), back.field_defs.len());
            }
        }
    });
}

#[test]
fn tile_grid_ragged_3d_partition() {
    cases(0x7113, 64, |rng| {
        let e: Vec<usize> = (0..3).map(|_| rng.usize_in(1, 11)).collect();
        let g: Vec<usize> = e.iter().map(|&e| rng.usize_in(1, e.min(4))).collect();
        let grid = TileGrid::new(&e, &g);
        let mut count = vec![0u32; e.iter().product()];
        for a in 0..g[0] {
            for b in 0..g[1] {
                for c in 0..g[2] {
                    let r = grid.tile_region(&[a, b, c]);
                    Shape::new(&r.extent).for_each_index(|rel| {
                        let g = |k: usize| r.origin[k] + rel[k];
                        count[(g(0) * e[1] + g(1)) * e[2] + g(2)] += 1;
                    });
                }
            }
        }
        assert!(count.iter().all(|&c| c == 1), "gaps or overlaps");
    });
}

#[test]
fn halo_line_accessor_agrees() {
    cases(0x4a10, 64, |rng| {
        let d = rng.usize_in(2, 3);
        let ext: Vec<usize> = (0..d).map(|_| rng.usize_in(2, 5)).collect();
        let halo = rng.usize_in(0, 2);
        let axis = rng.usize_in(0, ext.len() - 1);
        let mut h = HaloArray::zeros(&ext, halo);
        let mut c = 0.0;
        let base: Vec<usize> = ext.iter().map(|&e| (e - 1) / 2).collect();
        // fill interior deterministically
        let shape = ext.clone();
        fn fill(h: &mut HaloArray, dims: &[usize], idx: &mut Vec<usize>, k: usize, c: &mut f64) {
            if k == dims.len() {
                *c += 1.0;
                h.set_i(idx, *c);
                return;
            }
            for v in 0..dims[k] {
                idx.push(v);
                fill(h, dims, idx, k + 1, c);
                idx.pop();
            }
        }
        fill(&mut h, &shape, &mut Vec::new(), 0, &mut c);
        // Walk the interior line along `axis` through `base` by storage
        // offset and stride, the way row walkers address tile storage.
        let s = h.strides();
        let off = (0..d)
            .filter(|&k| k != axis)
            .fold(h.interior_origin_offset(), |off, k| off + base[k] * s[k]);
        for k in 0..ext[axis] {
            let mut idx = base.clone();
            idx[axis] = k;
            assert_eq!(h.raw()[off + k * s[axis]], h.get_i(&idx));
        }
    });
}

#[test]
fn halo_row_walks_match_per_element_indexing() {
    cases(0x4a11, 64, |rng| {
        let d = rng.usize_in(1, 4);
        let ext: Vec<usize> = (0..d).map(|_| rng.usize_in(1, 5)).collect();
        let halo = rng.usize_in(1, 2);
        let mut h = HaloArray::zeros(&ext, halo);
        for (i, v) in h.raw_mut().iter_mut().enumerate() {
            *v = i as f64;
        }
        let interior = Shape::new(&ext);

        // Interior rows arrive in row-major order, each starting at the
        // index it reports.
        let mut seen = Vec::new();
        h.for_each_interior_row(|idx, row| {
            assert_eq!(idx[d - 1], 0);
            assert_eq!(row[0], h.get_i(idx));
            seen.extend_from_slice(row);
        });
        let mut want = Vec::new();
        interior.for_each_index(|idx| want.push(h.get_i(idx)));
        assert_eq!(seen, want);

        let dim = rng.usize_in(0, d - 1);
        let width = rng.usize_in(1, halo.min(ext[dim]));
        let side = if rng.bool() { Side::Low } else { Side::High };
        // The packed face is the slab of `width` interior planes on `side`.
        let mut face_shape = ext.clone();
        face_shape[dim] = width;
        let at = |rel: &[usize], ghost: bool| -> Vec<isize> {
            let mut idx: Vec<isize> = rel.iter().map(|&i| i as isize).collect();
            let (e, w) = (ext[dim] as isize, width as isize);
            idx[dim] += match (side, ghost) {
                (Side::Low, false) => 0,
                (Side::High, false) => e - w,
                (Side::Low, true) => -w,
                (Side::High, true) => e,
            };
            idx
        };
        let mut face = Vec::new();
        Shape::new(&face_shape).for_each_index(|rel| face.push(h.get(&at(rel, false))));
        assert_eq!(h.pack_face(dim, side, width), face);

        // Unpacking fills exactly the ghost slab, in the same order.
        let msg: Vec<f64> = (0..face.len()).map(|i| -1.0 - i as f64).collect();
        let before = h.clone();
        h.unpack_ghost(dim, side, width, &msg);
        let mut k = 0;
        let mut written = 0;
        Shape::new(&face_shape).for_each_index(|rel| {
            assert_eq!(h.get(&at(rel, true)), msg[k]);
            k += 1;
        });
        for (a, b) in h.raw().iter().zip(before.raw()) {
            if a != b {
                written += 1;
            }
        }
        assert_eq!(written, msg.len(), "unpack wrote outside the ghost slab");
    });
}
