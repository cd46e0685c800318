//! Per-thread scratch arenas for kernel-internal temporaries.
//!
//! Every heavy kernel in this crate needs short-lived working memory — the
//! packed `B` block of a convolution, the widened accumulator of a batched
//! dense layer. Allocating those per call puts the allocator (and the kernel
//! page faults behind it) on the per-query hot path of the fork-join runtime. The
//! arena here keeps one buffer per *use site* per thread: a kernel takes the
//! buffer for its site, clears and resizes it (within capacity after the
//! first query — no allocation), and puts it back when done.
//!
//! Buffers are thread-local, so kernels fanned out across the
//! [`gillis_pool`](../../gillis_pool/index.html) worker threads each warm
//! their own arena; there is no cross-thread synchronization on the hot path.
//! Capacity only ever grows (a put never shrinks), so after one pass over a
//! model every later query runs allocation-free regardless of the layer
//! sequence.

use std::cell::RefCell;

/// Identifies the use site a scratch buffer belongs to.
///
/// One live buffer per site per thread: a kernel must put a site's buffer
/// back before any code path that takes the same site again runs on the same
/// thread (taking an already-taken site yields a fresh empty buffer, which is
/// correct but defeats reuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Packed `B` block of the f32 GEMM driver: at most `KC·NC` floats.
    PackB = 0,
    /// Row-major `rows × nrhs` accumulator of a batched `dense` (gemv_multi)
    /// before de-interleaving into per-item outputs.
    BatchGemv = 1,
}

const N_SITES: usize = 2;

/// A per-thread set of reusable `f32` buffers, one slot per [`Site`].
#[derive(Debug, Default)]
pub struct Scratch {
    slots: [Vec<f32>; N_SITES],
}

impl Scratch {
    /// Takes the buffer for `site`, leaving an empty slot behind. The buffer
    /// keeps whatever capacity it grew on earlier queries; callers clear and
    /// resize it to their needs.
    pub fn take(&mut self, site: Site) -> Vec<f32> {
        std::mem::take(&mut self.slots[site as usize])
    }

    /// Returns a buffer to `site` so later takes on this thread reuse its
    /// capacity. Keeps the larger of the stored and returned buffers, so
    /// capacity is monotone even if a site was double-taken.
    pub fn put(&mut self, site: Site, buf: Vec<f32>) {
        let slot = &mut self.slots[site as usize];
        if buf.capacity() > slot.capacity() {
            *slot = buf;
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Takes the calling thread's buffer for `site`; pair with [`put`].
pub fn take(site: Site) -> Vec<f32> {
    SCRATCH.with(|s| s.borrow_mut().take(site))
}

/// Returns a buffer to the calling thread's slot for `site`.
pub fn put(site: Site, buf: Vec<f32>) {
    SCRATCH.with(|s| s.borrow_mut().put(site, buf));
}

/// Bytes the calling thread's largest scratch buffer holds.
#[cfg(test)]
pub(crate) fn largest_site_bytes() -> usize {
    let cap = |s: &RefCell<Scratch>| s.borrow().slots.iter().map(Vec::capacity).max();
    SCRATCH.with(cap).unwrap_or(0) * std::mem::size_of::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_reuses_capacity() {
        let mut s = Scratch::default();
        let mut buf = s.take(Site::PackB);
        buf.resize(1024, 0.0);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        s.put(Site::PackB, buf);
        let again = s.take(Site::PackB);
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.as_ptr(), ptr);
    }

    #[test]
    fn sites_are_independent() {
        let mut s = Scratch::default();
        let mut a = s.take(Site::BatchGemv);
        a.resize(16, 1.0);
        s.put(Site::BatchGemv, a);
        let b = s.take(Site::PackB);
        assert_eq!(b.capacity(), 0);
    }

    #[test]
    fn put_keeps_larger_buffer_on_double_take() {
        let mut s = Scratch::default();
        let mut big = s.take(Site::BatchGemv);
        big.resize(256, 0.0);
        let mut small = s.take(Site::BatchGemv); // double take: empty
        small.resize(8, 0.0);
        s.put(Site::BatchGemv, small);
        s.put(Site::BatchGemv, big);
        assert!(s.take(Site::BatchGemv).capacity() >= 256);
    }

    #[test]
    fn thread_local_helpers_roundtrip() {
        let mut buf = take(Site::BatchGemv);
        buf.resize(64, 2.0);
        let cap = buf.capacity();
        put(Site::BatchGemv, buf);
        let again = take(Site::BatchGemv);
        assert!(again.capacity() >= cap);
        put(Site::BatchGemv, again);
    }
}
