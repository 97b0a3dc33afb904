//! Binary checkpoint codec for field data.
//!
//! Long ADI runs on real machines checkpoint their per-rank state; this
//! module provides a compact, versioned binary encoding for the storage
//! types (`HaloArray`, `TileData`, `RankStore`) using plain `Vec<u8>`
//! buffers and an explicit little-endian layout. The format is
//! self-describing enough to fail loudly on corruption or version mismatch,
//! and round-trips bit-exactly (f64 payloads are stored as raw
//! little-endian bits).

use crate::dist::{FieldDef, RankStore, TileData};
use crate::halo::HaloArray;
use crate::shape::Region;

/// Format magic (`"MPCK"`) and version. Version 2 adds each field's
/// scratch flag ([`FieldDef::scratch`](crate::FieldDef)) after its halo.
const MAGIC: u32 = 0x4D50_434B;
const VERSION: u16 = 2;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the structure was complete.
    Truncated,
    /// Magic number mismatch — not a checkpoint.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// A structural invariant failed (e.g. length overflow).
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::BadMagic => write!(f, "bad magic (not a checkpoint)"),
            CodecError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked little-endian cursor over an encoded byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16_le(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64_le(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }
}

fn put_u16_le(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32_le(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64_le(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_usize_vec(buf: &mut Vec<u8>, v: &[usize]) {
    put_u16_le(buf, v.len() as u16);
    for &x in v {
        put_u32_le(buf, x as u32);
    }
}

fn get_usize_vec(r: &mut ByteReader<'_>) -> Result<Vec<usize>, CodecError> {
    let n = r.u16_le()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32_le()? as usize);
    }
    Ok(out)
}

fn put_f64s(buf: &mut Vec<u8>, v: &[f64]) {
    put_u64_le(buf, v.len() as u64);
    buf.reserve(v.len() * 8);
    for &x in v {
        put_u64_le(buf, x.to_bits());
    }
}

fn get_f64s(r: &mut ByteReader<'_>) -> Result<Vec<f64>, CodecError> {
    let n = r.u64_le()? as usize;
    if n > (1 << 40) {
        return Err(CodecError::Corrupt("implausible array length"));
    }
    if r.remaining() < 8 * n {
        return Err(CodecError::Truncated);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f64::from_bits(r.u64_le()?));
    }
    Ok(out)
}

/// Encode a halo array (interior + ghosts, bit-exact).
pub fn encode_halo(h: &HaloArray, buf: &mut Vec<u8>) {
    put_usize_vec(buf, h.interior());
    put_u16_le(buf, h.halo() as u16);
    // Store the padded backing data via the interior accessor extension.
    let padded: Vec<usize> = h.interior().iter().map(|&e| e + 2 * h.halo()).collect();
    let mut flat = Vec::with_capacity(padded.iter().product());
    let halo = h.halo() as isize;
    crate::shape::Shape::new(&padded).for_each_index(|idx| {
        let logical: Vec<isize> = idx.iter().map(|&i| i as isize - halo).collect();
        flat.push(h.get(&logical));
    });
    put_f64s(buf, &flat);
}

/// Decode a halo array.
pub fn decode_halo(r: &mut ByteReader<'_>) -> Result<HaloArray, CodecError> {
    let interior = get_usize_vec(r)?;
    let halo = r.u16_le()? as usize;
    let flat = get_f64s(r)?;
    if interior.is_empty() || interior.contains(&0) {
        return Err(CodecError::Corrupt(
            "halo interior extents must be positive",
        ));
    }
    let padded: Vec<usize> = interior.iter().map(|&e| e + 2 * halo).collect();
    if flat.len() != padded.iter().product::<usize>() {
        return Err(CodecError::Corrupt("halo shape/data mismatch"));
    }
    let mut h = HaloArray::zeros(&interior, halo);
    let hi = halo as isize;
    let mut it = flat.into_iter();
    crate::shape::Shape::new(&padded).for_each_index(|idx| {
        let logical: Vec<isize> = idx.iter().map(|&i| i as isize - hi).collect();
        h.set(&logical, it.next().unwrap());
    });
    Ok(h)
}

/// ```
/// use mp_grid::{encode_rank_store, decode_rank_store, FieldDef, RankStore, TileGrid};
/// let grid = TileGrid::new(&[4, 4], &[2, 2]);
/// let store = RankStore::allocate(0, &grid, &[vec![0, 1]], &[FieldDef::new("u", 1)]);
/// let bytes = encode_rank_store(&store);
/// assert_eq!(decode_rank_store(&bytes).unwrap(), store);
/// ```
/// Encode a full rank checkpoint.
pub fn encode_rank_store(store: &RankStore) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32_le(&mut buf, MAGIC);
    put_u16_le(&mut buf, VERSION);
    put_u64_le(&mut buf, store.rank);
    // Field definitions.
    put_u16_le(&mut buf, store.field_defs.len() as u16);
    for fd in &store.field_defs {
        let name = fd.name.as_bytes();
        put_u16_le(&mut buf, name.len() as u16);
        buf.extend_from_slice(name);
        put_u16_le(&mut buf, fd.halo as u16);
        buf.push(fd.scratch as u8);
    }
    // Tiles.
    put_u32_le(&mut buf, store.tiles.len() as u32);
    for tile in &store.tiles {
        let coord_us: Vec<usize> = tile.coord.iter().map(|&c| c as usize).collect();
        put_usize_vec(&mut buf, &coord_us);
        put_usize_vec(&mut buf, &tile.region.origin);
        put_usize_vec(&mut buf, &tile.region.extent);
        for f in &tile.fields {
            encode_halo(f, &mut buf);
        }
    }
    buf
}

/// Decode a full rank checkpoint.
pub fn decode_rank_store(buf: &[u8]) -> Result<RankStore, CodecError> {
    let r = &mut ByteReader::new(buf);
    if r.u32_le()? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16_le()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let rank = r.u64_le()?;
    let nfields = r.u16_le()? as usize;
    let mut field_defs = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let len = r.u16_le()? as usize;
        let name_bytes = r.take(len)?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| CodecError::Corrupt("field name not UTF-8"))?
            .to_string();
        let halo = r.u16_le()? as usize;
        let scratch = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Corrupt("scratch flag not 0 or 1")),
        };
        field_defs.push(FieldDef {
            name,
            halo,
            scratch,
        });
    }
    let ntiles = r.u32_le()? as usize;
    if ntiles > 1 << 24 {
        return Err(CodecError::Corrupt("implausible tile count"));
    }
    let mut tiles = Vec::with_capacity(ntiles);
    for _ in 0..ntiles {
        let coord_us = get_usize_vec(r)?;
        let origin = get_usize_vec(r)?;
        let extent = get_usize_vec(r)?;
        if extent.is_empty() || extent.contains(&0) {
            return Err(CodecError::Corrupt("zero tile extent"));
        }
        if origin.len() != extent.len() || coord_us.len() != extent.len() {
            return Err(CodecError::Corrupt("tile coordinate arity mismatch"));
        }
        let region = Region::new(origin, extent);
        let mut fields = Vec::with_capacity(nfields);
        for fd in &field_defs {
            let h = decode_halo(r)?;
            if h.interior() != region.extent.as_slice() || h.halo() != fd.halo {
                return Err(CodecError::Corrupt("field shape disagrees with tile"));
            }
            fields.push(h);
        }
        tiles.push(TileData {
            coord: coord_us.iter().map(|&c| c as u64).collect(),
            region,
            fields,
        });
    }
    Ok(RankStore {
        rank,
        field_defs,
        tiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileGrid;

    fn sample_store() -> RankStore {
        let grid = TileGrid::new(&[8, 8, 8], &[2, 2, 2]);
        let coords = vec![vec![0u64, 0, 0], vec![1, 1, 1]];
        let fields = vec![FieldDef::new("u", 1), FieldDef::new("rhs", 0)];
        let mut store = RankStore::allocate(3, &grid, &coords, &fields);
        store.init_field(0, |g| (g[0] * 64 + g[1] * 8 + g[2]) as f64 * 0.25 - 3.0);
        store.init_field(1, |g| -(g[0] as f64) + 0.125 * g[2] as f64);
        // put something in a ghost cell too
        store.tiles[0].fields[0].set(&[-1, 0, 0], 42.5);
        store
    }

    #[test]
    fn array_roundtrip_special_values() {
        let mut h = HaloArray::zeros(&[7], 1);
        let values = [
            f64::NEG_INFINITY,
            f64::INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            f64::MAX,
            1e-300,
            -1e-310, // subnormal
            f64::MIN,
        ];
        h.raw_mut().copy_from_slice(&values);
        let mut buf = Vec::new();
        encode_halo(&h, &mut buf);
        let mut r = ByteReader::new(&buf);
        let back = decode_halo(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "all bytes consumed");
        for (x, y) in h.raw().iter().zip(back.raw()) {
            assert_eq!(x.to_bits(), y.to_bits(), "bit-exactness");
        }
    }

    #[test]
    fn halo_roundtrip_preserves_ghosts() {
        let mut h = HaloArray::zeros(&[3, 3], 2);
        h.set(&[-2, -2], 7.0);
        h.set(&[4, 2], -1.5);
        h.set_i(&[1, 1], 9.0);
        let mut buf = Vec::new();
        encode_halo(&h, &mut buf);
        let h2 = decode_halo(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(h2.get(&[-2, -2]), 7.0);
        assert_eq!(h2.get(&[4, 2]), -1.5);
        assert_eq!(h2.get_i(&[1, 1]), 9.0);
        assert_eq!(h2.halo(), 2);
    }

    #[test]
    fn rank_store_roundtrip() {
        let store = sample_store();
        let bytes = encode_rank_store(&store);
        let back = decode_rank_store(&bytes).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn scratch_flag_round_trips() {
        let grid = TileGrid::new(&[4, 4], &[2, 2]);
        let fields = vec![FieldDef::new("u", 1), FieldDef::scratch("c")];
        let mut store = RankStore::allocate(1, &grid, &[vec![0, 1], vec![1, 0]], &fields);
        store.init_field(0, |g| g[0] as f64 - 0.5 * g[1] as f64);
        store.tiles[1].fields[1].raw_mut()[3] = -0.0;
        let bytes = encode_rank_store(&store);
        assert_eq!(
            u16::from_le_bytes([bytes[4], bytes[5]]),
            2,
            "writes version 2"
        );
        let back = decode_rank_store(&bytes).unwrap();
        assert_eq!(back, store);
        assert!(!back.field_defs[0].scratch && back.field_defs[1].scratch);

        // A flag other than 0 or 1 is corruption.
        let mut bad = bytes.clone();
        bad[4 + 2 + 8 + 2 + 2 + 1 + 2] = 7;
        assert_eq!(
            decode_rank_store(&bad),
            Err(CodecError::Corrupt("scratch flag not 0 or 1"))
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let store = sample_store();
        let mut raw = encode_rank_store(&store);
        raw[0] ^= 0xFF;
        assert_eq!(decode_rank_store(&raw), Err(CodecError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let store = sample_store();
        // Version 1 (no scratch flags) included: only the current one decodes.
        for v in [0u16, 1, 3, 99] {
            let mut raw = encode_rank_store(&store);
            raw[4..6].copy_from_slice(&v.to_le_bytes());
            assert_eq!(decode_rank_store(&raw), Err(CodecError::BadVersion(v)));
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        // Chopping the buffer at ANY prefix length must produce an error,
        // never a panic or a silently wrong result.
        let store = sample_store();
        let raw = encode_rank_store(&store);
        for cut in 0..raw.len() {
            let r = decode_rank_store(&raw[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(CodecError::Truncated.to_string(), "buffer truncated");
        assert!(CodecError::BadVersion(7).to_string().contains('7'));
    }
}
