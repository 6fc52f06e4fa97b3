//! Memory conditioning: a stock of host-backed free pages for the servers
//! to fault during the timed window.
//!
//! The sandbox this benchmark was defined on is a VM with free page
//! reporting: the guest hands free blocks of 1 MiB and more back to the
//! host a few seconds after they become free, and the first touch of such
//! a page afterwards costs 11–18 µs instead of 1.7 µs. A server that keeps
//! every byte it is sent (`slab_write`: 2 MiB of fresh memory per op) then
//! spends up to half as much CPU again in page faults, depending on what
//! the guest's free lists happen to hold — history no program under test
//! controls. The first `slab_write` round after anything else ran at
//! 199 ops/s, the sixth at 240.
//!
//! [`WarmStock`] makes that history the same every time. It maps twice the
//! bytes a window will fault and touches them all;
//! [`WarmStock::release`] gives every other 64 KiB stripe back to the
//! kernel. Those pages are host-backed, and because the stripes between
//! them stay mapped they cannot coalesce into blocks large enough to be
//! reported, so they stay host-backed; the page allocator hands out small
//! free blocks before it splits large ones, so the servers' next page
//! faults are served from this stock. On hardware every page is
//! "host-backed" and the conditioning changes nothing.

use std::io;

const PAGE: usize = 4096;
/// Released and kept stripes alternate at this size: 16 pages, well under
/// the 256-page blocks free page reporting starts at.
const STRIPE: usize = 64 * 1024;

mod sys {
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MADV_DONTNEED: i32 = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
        pub fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
}

/// An anonymous mapping of `2 × stock` bytes whose even stripes are the
/// stock and whose odd stripes keep the stock's pages from coalescing.
pub struct WarmStock {
    base: *mut u8,
    len: usize,
}

impl WarmStock {
    /// Maps and touches room for `stock_bytes` of stock (rounded up to
    /// whole stripes).
    pub fn new(stock_bytes: usize) -> io::Result<Self> {
        let len = stock_bytes.div_ceil(STRIPE).max(1) * 2 * STRIPE;
        // SAFETY: an anonymous private mapping at an address the kernel
        // chooses aliases no existing memory; the result is checked.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let stock = WarmStock { base, len };
        stock.refill();
        Ok(stock)
    }

    /// Touches every page of the mapping: takes pages for the stock (from
    /// whatever the free lists now hold) so that the next
    /// [`release`](Self::release) has them to give. The kept stripes are
    /// already resident and cost a store each.
    pub fn refill(&self) {
        for at in (0..self.len).step_by(PAGE) {
            // SAFETY: `at` < `len`, inside the mapping this value owns;
            // nothing else holds a reference into it.
            unsafe { self.base.add(at).write_volatile(1) };
        }
    }

    /// Gives the stock's pages back to the kernel's free lists.
    pub fn release(&self) {
        for stripe in (0..self.len).step_by(2 * STRIPE) {
            // SAFETY: the stripe lies inside the mapping; DONTNEED on
            // private anonymous memory only drops its pages.
            unsafe { sys::madvise(self.base.add(stripe), STRIPE, sys::MADV_DONTNEED) };
        }
    }
}

impl Drop for WarmStock {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` created.
        unsafe { sys::munmap(self.base, self.len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_drops_the_even_stripes_and_refill_takes_them_back() {
        let stock = WarmStock::new(3 * STRIPE - 5).unwrap();
        assert_eq!(stock.len, 6 * STRIPE);
        // SAFETY: every offset read is inside the mapping.
        let byte = |at: usize| unsafe { stock.base.add(at).read_volatile() };
        assert!((0..stock.len).step_by(PAGE).all(|at| byte(at) == 1));
        stock.release();
        // A dropped anonymous page reads back as zeroes; a kept one keeps
        // its byte.
        for stripe in 0..6 {
            let expected = if stripe % 2 == 0 { 0 } else { 1 };
            assert_eq!(byte(stripe * STRIPE), expected, "stripe {stripe}");
            assert_eq!(
                byte((stripe + 1) * STRIPE - PAGE),
                expected,
                "stripe {stripe}"
            );
        }
        stock.refill();
        assert!((0..stock.len).step_by(PAGE).all(|at| byte(at) == 1));
    }
}
