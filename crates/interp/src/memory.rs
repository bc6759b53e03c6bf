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

    /// A flat image of the whole region table: the region count, then
    /// per region its cell count ([`FREED`] once freed) followed by its
    /// cells. One exactly-sized buffer per image keeps a golden
    /// checkpoint's memory to a single allocation.
    pub(crate) fn save_image(&self) -> Vec<u64> {
        let cells: usize = self.regions.iter().flatten().map(|r| r.len()).sum();
        let mut out = Vec::with_capacity(1 + self.regions.len() + cells);
        out.push(self.regions.len() as u64);
        for region in &self.regions {
            match region {
                Some(cells) => {
                    out.push(cells.len() as u64);
                    out.extend_from_slice(cells);
                }
                None => out.push(FREED),
            }
        }
        out
    }

    /// Replaces the contents with a [`Memory::save_image`] image,
    /// copying in place into regions whose size already matches.
    pub(crate) fn load_image(&mut self, image: &[u64]) {
        let mut words = ImageWords::new(image);
        self.regions.truncate(words.count);
        for k in 0..words.count {
            let cells = words.next_region();
            match (self.regions.get_mut(k), cells) {
                (Some(Some(r)), Some(cells)) if r.len() == cells.len() => r.copy_from_slice(cells),
                (Some(slot), cells) => *slot = cells.map(Box::from),
                (None, cells) => self.regions.push(cells.map(Box::from)),
            }
        }
    }

    /// `true` when [`Memory::save_image`] would produce exactly `image`.
    pub(crate) fn matches_image(&self, image: &[u64]) -> bool {
        let mut words = ImageWords::new(image);
        words.count == self.regions.len()
            && self
                .regions
                .iter()
                .all(|region| region.as_deref() == words.next_region())
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

/// Cell-count marker of a freed region in a memory image.
const FREED: u64 = u64::MAX;

/// Reader over a [`Memory::save_image`] image.
struct ImageWords<'a> {
    count: usize,
    rest: &'a [u64],
}

impl<'a> ImageWords<'a> {
    fn new(image: &'a [u64]) -> Self {
        ImageWords {
            count: image[0] as usize,
            rest: &image[1..],
        }
    }

    /// The next region's cells, `None` for a freed one.
    fn next_region(&mut self) -> Option<&'a [u64]> {
        let len = self.rest[0];
        self.rest = &self.rest[1..];
        if len == FREED {
            return None;
        }
        let (cells, rest) = self.rest.split_at(len as usize);
        self.rest = rest;
        Some(cells)
    }
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
