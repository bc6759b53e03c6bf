//! The interpreter's memory model.
//!
//! Memory is a table of independent *regions* (one per `alloca` or
//! `malloc`). An address packs a region number into the upper 32 bits and
//! a byte offset into the lower 32 bits, so a bit flip in a pointer can
//! land in another live region (silent corruption), in a dead region
//! (trap), or off the end of a region (trap) — mirroring how corrupted
//! addresses behave on real hardware with guard pages.
//!
//! All accesses are 8-byte sized and 8-byte aligned; each region stores
//! raw `u64` cells. Loads and stores are assumed ECC-protected in the
//! paper's fault model, so the injector never corrupts memory contents
//! directly — only computed values (including addresses) in registers.

use std::sync::Arc;

use crate::trap::Trap;

/// Number of address bits given to the in-region byte offset.
const OFFSET_BITS: u32 = 32;
/// Largest single allocation accepted by `malloc`/`alloca`, in bytes.
const MAX_ALLOC_BYTES: i64 = 1 << 30;

/// Canonical poison address produced by overflowing address arithmetic.
///
/// `gep` is speculatable (LICM hoists it out of loops), so it must never
/// trap itself. Instead, arithmetic that overflows the address space
/// collapses to this sentinel, which deterministically traps on any
/// subsequent access. Both engines share [`gep_addr`], so the reference
/// and compiled interpreters stay bit-identical on these paths.
pub const POISON_ADDR: u64 = u64::MAX;

/// Computes `base + index * 8` for an 8-byte element `gep`, collapsing
/// any overflow to [`POISON_ADDR`] instead of wrapping.
///
/// Wrapping arithmetic here was a real bug: a huge index could wrap the
/// address back into a live region and silently alias unrelated data —
/// exactly the class of silent corruption this project exists to catch.
#[inline]
pub fn gep_addr(base: u64, index: i64) -> u64 {
    match index.checked_mul(8) {
        Some(off) => base.checked_add_signed(off).unwrap_or(POISON_ADDR),
        None => POISON_ADDR,
    }
}

/// Region-table memory with trap-checked accesses.
#[derive(Debug, Default)]
pub struct Memory {
    regions: Vec<Option<Box<[u64]>>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Allocates a region of `bytes` bytes (rounded up to 8), returning
    /// its base address.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::BadAlloc`] when `bytes` is non-positive or exceeds
    /// the implementation limit.
    pub fn alloc(&mut self, bytes: i64) -> Result<u64, Trap> {
        if bytes <= 0 || bytes > MAX_ALLOC_BYTES {
            return Err(Trap::BadAlloc);
        }
        let cells = (bytes as usize).div_ceil(8);
        let region = self.regions.len() as u64;
        self.regions
            .push(Some(vec![0u64; cells].into_boxed_slice()));
        // Region numbers start at 1 in the address encoding so that 0 is
        // the unmapped null page.
        Ok((region + 1) << OFFSET_BITS)
    }

    /// Frees the region containing `addr` (which must be its base).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::BadFree`] for non-base pointers, double frees, and
    /// addresses that never came from [`Memory::alloc`].
    pub fn free(&mut self, addr: u64) -> Result<(), Trap> {
        if addr >> OFFSET_BITS == 0 {
            // The null page never came from `alloc`.
            return Err(Trap::BadFree);
        }
        let (region, offset) = Self::split(addr);
        if offset != 0 {
            return Err(Trap::BadFree);
        }
        match self.slot_mut(region)? {
            Some(_) => {
                self.regions[region] = None;
                Ok(())
            }
            None => Err(Trap::BadFree),
        }
    }

    /// Loads the 8-byte cell at `addr`.
    ///
    /// # Errors
    ///
    /// Returns the appropriate [`Trap`] for null, unaligned,
    /// out-of-bounds, or freed addresses.
    pub fn load(&self, addr: u64) -> Result<u64, Trap> {
        let (region, offset) = Self::check(addr)?;
        let data = self.region_data(region)?;
        data.get(offset / 8).copied().ok_or(Trap::OutOfBounds)
    }

    /// Stores `value` into the 8-byte cell at `addr`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::load`].
    pub fn store(&mut self, addr: u64, value: u64) -> Result<(), Trap> {
        let (region, offset) = Self::check(addr)?;
        let cell = offset / 8;
        match self.slot_mut(region)? {
            Some(data) => match data.get_mut(cell) {
                Some(slot) => {
                    *slot = value;
                    Ok(())
                }
                None => Err(Trap::OutOfBounds),
            },
            None => Err(Trap::UseAfterFree),
        }
    }

    /// Clears all regions while keeping the region table's capacity, so
    /// a pooled memory can be reused across runs without reallocating
    /// the table. Freshly allocated regions after a reset start at
    /// region number 1 again, exactly like a new memory — addresses are
    /// reproducible run to run.
    pub fn reset(&mut self) {
        self.regions.clear();
    }

    /// Number of live regions (for leak assertions in tests).
    pub fn live_regions(&self) -> usize {
        self.regions.iter().filter(|r| r.is_some()).count()
    }

    /// An image of the whole region table that shares with `prev`
    /// (normally the previous image of the same run) every chunk whose
    /// cells are unchanged at the same region and offset, and copies
    /// only the others. Live regions are compared in place: nothing is
    /// flattened or hashed.
    pub(crate) fn save_image(&self, prev: Option<&Image>) -> Image {
        let regions = self
            .regions
            .iter()
            .enumerate()
            .map(|(k, region)| {
                let cells = region.as_deref()?;
                let before = prev.map_or(&[][..], |p| p.region(k));
                let chunks = cells
                    .chunks(CHUNK_CELLS)
                    .enumerate()
                    .map(|(j, cells)| match before.get(j) {
                        Some(chunk) if **chunk == *cells => Arc::clone(chunk),
                        _ => Arc::from(cells),
                    })
                    .collect();
                Some(chunks)
            })
            .collect();
        Image { regions }
    }

    /// Replaces the contents with `image`, copying in place into
    /// regions whose size already matches.
    pub(crate) fn load_image(&mut self, image: &Image) {
        self.regions.truncate(image.regions.len());
        for (k, saved) in image.regions.iter().enumerate() {
            let saved = saved.as_deref();
            match (self.regions.get_mut(k), saved) {
                (Some(Some(r)), Some(chunks)) if r.len() == cell_count(chunks) => {
                    for (cells, chunk) in r.chunks_mut(CHUNK_CELLS).zip(chunks) {
                        cells.copy_from_slice(chunk);
                    }
                }
                (Some(slot), chunks) => *slot = chunks.map(|c| c.concat().into_boxed_slice()),
                (None, chunks) => self
                    .regions
                    .push(chunks.map(|c| c.concat().into_boxed_slice())),
            }
        }
    }

    /// `true` when the contents equal `image` bit for bit: every region
    /// is live or freed alike, and every live region has the image's
    /// cells. Stops at the first difference; a chunk shared between
    /// images is compared like any other.
    pub(crate) fn matches_image(&self, image: &Image) -> bool {
        self.regions.len() == image.regions.len()
            && self
                .regions
                .iter()
                .zip(&image.regions)
                .all(|(region, saved)| match (region, saved) {
                    (Some(cells), Some(chunks)) => cells
                        .chunks(CHUNK_CELLS)
                        .eq(chunks.iter().map(|chunk| &chunk[..])),
                    (None, None) => true,
                    _ => false,
                })
    }

    fn split(addr: u64) -> (usize, usize) {
        let region = (addr >> OFFSET_BITS) as usize;
        let offset = (addr & ((1u64 << OFFSET_BITS) - 1)) as usize;
        // Region numbers are offset by one in the encoding.
        (region.wrapping_sub(1), offset)
    }

    fn check(addr: u64) -> Result<(usize, usize), Trap> {
        if addr == POISON_ADDR {
            return Err(Trap::OutOfBounds);
        }
        if addr >> OFFSET_BITS == 0 {
            return Err(Trap::NullDeref);
        }
        let (region, offset) = Self::split(addr);
        if offset % 8 != 0 {
            return Err(Trap::Unaligned);
        }
        Ok((region, offset))
    }

    fn region_data(&self, region: usize) -> Result<&[u64], Trap> {
        match self.regions.get(region) {
            Some(Some(data)) => Ok(data),
            Some(None) => Err(Trap::UseAfterFree),
            None => Err(Trap::OutOfBounds),
        }
    }

    fn slot_mut(&mut self, region: usize) -> Result<&mut Option<Box<[u64]>>, Trap> {
        self.regions.get_mut(region).ok_or(Trap::OutOfBounds)
    }
}

/// Cells per [`Image`] chunk: 512 bytes.
const CHUNK_CELLS: usize = 64;

/// One image chunk, shared between the images whose cells it holds.
type Chunk = Arc<[u64]>;

/// A saved [`Memory`] region table ([`Memory::save_image`]): per region
/// its cells in chunks of [`CHUNK_CELLS`] aligned to the region's start
/// (its last chunk may be shorter), or `None` once freed. Aligning to
/// each region keeps one region's allocation or release from shifting
/// another's chunks, so consecutive images of one run share every chunk
/// that did not change. Immutable, so images are `Send + Sync`.
#[derive(Debug)]
pub(crate) struct Image {
    regions: Vec<Option<Box<[Chunk]>>>,
}

impl Image {
    /// The chunks of region `k`; none when it is freed or absent.
    fn region(&self, k: usize) -> &[Chunk] {
        self.regions
            .get(k)
            .and_then(Option::as_deref)
            .unwrap_or(&[])
    }

    /// Bytes this image adds to a ladder that already holds `prev`: its
    /// region table and chunk pointers, plus every chunk (with its
    /// reference counts) that it does not share with `prev`. Images
    /// share only with their predecessor, at the same region and
    /// offset, so summing this along a ladder counts each chunk once.
    pub(crate) fn bytes_over(&self, prev: Option<&Image>) -> usize {
        let mut bytes = self.regions.len() * std::mem::size_of::<Option<Box<[Chunk]>>>();
        for (k, region) in self.regions.iter().enumerate() {
            let before = prev.map_or(&[][..], |p| p.region(k));
            for (j, chunk) in region.iter().flatten().enumerate() {
                bytes += std::mem::size_of::<Chunk>();
                if !before.get(j).is_some_and(|b| Arc::ptr_eq(b, chunk)) {
                    // The allocation holds two reference counts, then the cells.
                    bytes += 2 * std::mem::size_of::<usize>() + chunk.len() * 8;
                }
            }
        }
        bytes
    }
}

/// Cells held by one live region's chunks.
fn cell_count(chunks: &[Chunk]) -> usize {
    chunks
        .last()
        .map_or(0, |last| (chunks.len() - 1) * CHUNK_CELLS + last.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_store_load_round_trip() {
        let mut m = Memory::new();
        let base = m.alloc(24).unwrap();
        m.store(base, 11).unwrap();
        m.store(base + 8, 22).unwrap();
        m.store(base + 16, 33).unwrap();
        assert_eq!(m.load(base).unwrap(), 11);
        assert_eq!(m.load(base + 8).unwrap(), 22);
        assert_eq!(m.load(base + 16).unwrap(), 33);
    }

    #[test]
    fn fresh_memory_is_zeroed() {
        let mut m = Memory::new();
        let base = m.alloc(8).unwrap();
        assert_eq!(m.load(base).unwrap(), 0);
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut m = Memory::new();
        let base = m.alloc(8).unwrap();
        assert_eq!(m.load(base + 8), Err(Trap::OutOfBounds));
        assert_eq!(m.store(base + 8, 1), Err(Trap::OutOfBounds));
    }

    #[test]
    fn null_and_unaligned_trap() {
        let mut m = Memory::new();
        let base = m.alloc(16).unwrap();
        assert_eq!(m.load(0), Err(Trap::NullDeref));
        assert_eq!(m.load(7), Err(Trap::NullDeref)); // still the null page
        assert_eq!(m.load(base + 4), Err(Trap::Unaligned));
    }

    #[test]
    fn use_after_free_traps() {
        let mut m = Memory::new();
        let base = m.alloc(8).unwrap();
        m.free(base).unwrap();
        assert_eq!(m.load(base), Err(Trap::UseAfterFree));
        assert_eq!(m.free(base), Err(Trap::BadFree));
    }

    #[test]
    fn bad_alloc_sizes_trap() {
        let mut m = Memory::new();
        assert_eq!(m.alloc(0), Err(Trap::BadAlloc));
        assert_eq!(m.alloc(-8), Err(Trap::BadAlloc));
        assert_eq!(m.alloc(i64::MAX), Err(Trap::BadAlloc));
    }

    #[test]
    fn free_of_interior_pointer_traps() {
        let mut m = Memory::new();
        let base = m.alloc(16).unwrap();
        assert_eq!(m.free(base + 8), Err(Trap::BadFree));
        assert_eq!(m.live_regions(), 1);
    }

    #[test]
    fn reset_reproduces_fresh_addressing() {
        let mut m = Memory::new();
        let a = m.alloc(16).unwrap();
        let _ = m.alloc(8).unwrap();
        m.store(a, 7).unwrap();
        m.reset();
        assert_eq!(m.live_regions(), 0);
        let a2 = m.alloc(16).unwrap();
        assert_eq!(a, a2, "addresses replay after reset");
        assert_eq!(m.load(a2).unwrap(), 0, "memory after reset is zeroed");
    }

    #[test]
    fn free_of_null_page_is_bad_free() {
        let mut m = Memory::new();
        assert_eq!(m.free(0), Err(Trap::BadFree));
        assert_eq!(m.free(8), Err(Trap::BadFree));
    }

    #[test]
    fn poison_address_always_traps() {
        let mut m = Memory::new();
        let _ = m.alloc(8).unwrap();
        assert_eq!(m.load(POISON_ADDR), Err(Trap::OutOfBounds));
        assert_eq!(m.store(POISON_ADDR, 1), Err(Trap::OutOfBounds));
    }

    #[test]
    fn gep_addr_overflow_is_poison_not_wrap() {
        let mut m = Memory::new();
        let base = m.alloc(16).unwrap();
        // In-range arithmetic is exact.
        assert_eq!(gep_addr(base, 1), base + 8);
        assert_eq!(gep_addr(base + 8, -1), base);
        // Index * 8 overflow and base + offset overflow both poison: the
        // old wrapping arithmetic could alias addr back into region 1.
        assert_eq!(gep_addr(base, i64::MAX), POISON_ADDR);
        assert_eq!(gep_addr(base, i64::MIN), POISON_ADDR);
        assert_eq!(gep_addr(u64::MAX - 7, 1), POISON_ADDR);
        assert_eq!(m.load(gep_addr(base, i64::MAX)), Err(Trap::OutOfBounds));
    }

    /// Stores a distinct value in every cell of the region at `base`.
    fn fill(m: &mut Memory, base: u64, cells: usize, seed: u64) {
        for i in 0..cells as u64 {
            m.store(base + 8 * i, seed.wrapping_mul(1_000_003) ^ i)
                .unwrap();
        }
    }

    /// Every cell of every region, `None` for freed ones.
    fn contents(m: &Memory) -> Vec<Option<Vec<u64>>> {
        m.regions
            .iter()
            .map(|r| r.as_deref().map(<[u64]>::to_vec))
            .collect()
    }

    #[test]
    fn images_survive_alloc_free_and_realloc_between_captures() {
        let mut m = Memory::new();
        let a = m.alloc(8 * 200).unwrap();
        let b = m.alloc(8 * 64).unwrap();
        let c = m.alloc(8 * 3).unwrap();
        fill(&mut m, a, 200, 1);
        fill(&mut m, b, 64, 2);
        fill(&mut m, c, 3, 3);
        let first = m.save_image(None);
        let first_contents = contents(&m);

        // Between the captures: free one region, allocate two more, and
        // change one cell of the first.
        m.free(b).unwrap();
        let d = m.alloc(8 * 130).unwrap();
        fill(&mut m, d, 130, 4);
        let e = m.alloc(8).unwrap();
        m.store(e, 5).unwrap();
        m.store(a + 8 * 70, 6).unwrap();
        let second = m.save_image(Some(&first));
        let second_contents = contents(&m);
        assert!(m.matches_image(&second));
        assert!(!m.matches_image(&first));
        // Region a keeps its first and last chunks; its middle one changed.
        assert!(Arc::ptr_eq(&second.region(0)[0], &first.region(0)[0]));
        assert!(!Arc::ptr_eq(&second.region(0)[1], &first.region(0)[1]));
        assert!(Arc::ptr_eq(&second.region(0)[3], &first.region(0)[3]));
        assert!(second.bytes_over(Some(&first)) < second.bytes_over(None));

        // Each image loads back exactly, over either state.
        for (image, want) in [(&first, &first_contents), (&second, &second_contents)] {
            for start in [&first, &second] {
                let mut n = Memory::new();
                n.load_image(start);
                n.load_image(image);
                assert_eq!(contents(&n), *want);
                assert!(n.matches_image(image));
            }
        }
        let mut n = Memory::new();
        n.load_image(&first);
        assert_eq!(
            n.load(b + 8 * 63).unwrap(),
            2_000_006 ^ 63,
            "b is live again"
        );
        assert_eq!(n.load(d), Err(Trap::OutOfBounds), "d is not yet allocated");
        n.load_image(&second);
        assert_eq!(n.load(b), Err(Trap::UseAfterFree));
        assert_eq!(n.load(e).unwrap(), 5);
    }

    #[test]
    fn a_short_last_chunk_round_trips_and_bounds_its_region() {
        let mut m = Memory::new();
        // 100 cells: one full chunk and a 36-cell one.
        let a = m.alloc(8 * 100).unwrap();
        fill(&mut m, a, 100, 7);
        let image = m.save_image(None);
        assert_eq!(image.region(0).len(), 2);
        assert_eq!(image.region(0)[1].len(), 36);
        let mut n = Memory::new();
        let _ = n.alloc(8 * 128).unwrap(); // same region, other size
        n.load_image(&image);
        assert_eq!(contents(&n), contents(&m));
        assert_eq!(n.load(a + 8 * 99).unwrap(), m.load(a + 8 * 99).unwrap());
        assert_eq!(n.load(a + 8 * 100), Err(Trap::OutOfBounds));
        // A region one cell longer, equal on the common cells, differs.
        let mut longer = Memory::new();
        let l = longer.alloc(8 * 101).unwrap();
        fill(&mut longer, l, 100, 7);
        assert!(!longer.matches_image(&image));
    }

    #[test]
    fn a_freed_region_stays_freed_through_an_image() {
        let mut m = Memory::new();
        let a = m.alloc(8 * 70).unwrap();
        let b = m.alloc(8 * 2).unwrap();
        m.free(a).unwrap();
        m.store(b, 9).unwrap();
        let image = m.save_image(None);
        // A memory whose first region is still live does not match, and
        // loading the image frees it.
        let mut n = Memory::new();
        let a2 = n.alloc(8 * 70).unwrap();
        let b2 = n.alloc(8 * 2).unwrap();
        n.store(b2, 9).unwrap();
        assert!(!n.matches_image(&image));
        n.load_image(&image);
        assert!(n.matches_image(&image));
        assert_eq!(n.load(a2), Err(Trap::UseAfterFree));
        assert_eq!(n.free(a2), Err(Trap::BadFree));
        assert_eq!(n.load(b2).unwrap(), 9);
        assert_eq!(n.live_regions(), 1);
    }

    #[test]
    fn a_cell_changed_inside_a_shared_chunk_does_not_match() {
        let mut m = Memory::new();
        let a = m.alloc(8 * 256).unwrap();
        fill(&mut m, a, 256, 11);
        let first = m.save_image(None);
        let second = m.save_image(Some(&first));
        // Nothing changed: every chunk is shared, and only the pointers
        // and the region table count.
        assert!((0..4).all(|j| Arc::ptr_eq(&second.region(0)[j], &first.region(0)[j])));
        assert_eq!(
            second.bytes_over(Some(&first)),
            std::mem::size_of::<Option<Box<[Chunk]>>>() + 4 * std::mem::size_of::<Chunk>()
        );
        assert!(m.matches_image(&second));
        let cell = a + 8 * 130;
        let kept = m.load(cell).unwrap();
        m.store(cell, kept ^ 1).unwrap();
        assert!(!m.matches_image(&second));
        assert!(!m.matches_image(&first));
        m.store(cell, kept).unwrap();
        assert!(m.matches_image(&second));
    }

    #[test]
    fn corrupted_region_bits_trap_or_alias() {
        let mut m = Memory::new();
        let a = m.alloc(8).unwrap(); // region 1
        let _b = m.alloc(8).unwrap(); // region 2
        let c = m.alloc(8).unwrap(); // region 3
        m.store(c, 99).unwrap();
        // Flipping bit 33 of `a` (region 1 -> region 3) lands on `c`:
        // silent aliasing, exactly how corrupted pointers hit live data.
        let aliased = a ^ (1 << 33);
        assert_eq!(aliased, c);
        assert_eq!(m.load(aliased).unwrap(), 99);
        // Flipping a high region bit leaves the region table: trap.
        assert_eq!(m.load(a ^ (1 << 50)), Err(Trap::OutOfBounds));
    }
}
