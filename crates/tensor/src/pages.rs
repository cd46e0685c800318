//! Fresh weight buffers, faulted in 2 MiB pages where the OS allows it.

/// Buffers of at least this many elements (4 MiB of `f32`) are advised into
/// transparent huge pages; a smaller one holds at most one whole 2 MiB page.
pub(crate) const HUGE_MIN_LEN: usize = 1 << 20;

/// A zeroed buffer of `len` elements none of whose pages is touched yet: the
/// OS zeroes each page at its first write. From `HUGE_MIN_LEN` up, on Linux,
/// its 2 MiB-aligned interior is first advised into transparent huge pages,
/// so the fill that follows faults it in once per 2 MiB instead of once per
/// 4 KiB. Every advised page lies inside the buffer, so a caller that writes
/// every element holds the same resident bytes either way. The advice is
/// only advice: its result is ignored, and with THP `never` or off Linux the
/// buffer is a plain `vec![0.0; len]`.
pub(crate) fn untouched_zeros(len: usize) -> Vec<f32> {
    let data = vec![0.0f32; len];
    #[cfg(target_os = "linux")]
    if len >= HUGE_MIN_LEN {
        const HUGE_PAGE: usize = 2 << 20;
        const MADV_HUGEPAGE: i32 = 14;
        extern "C" {
            fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        let bytes = data.as_ptr_range();
        let start = (bytes.start as usize).next_multiple_of(HUGE_PAGE);
        let end = bytes.end as usize / HUGE_PAGE * HUGE_PAGE;
        // SAFETY: 4 MiB or more always hold a whole aligned 2 MiB page, so
        // `start < end`, and `[start, end)` lies inside `data`'s allocation;
        // the advice changes how its pages are backed, not one byte of it.
        unsafe { madvise(start as *mut _, end - start, MADV_HUGEPAGE) };
    }
    data
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use crate::{Shape, Tensor};

    /// The `THPeligible` field of the `/proc/self/smaps` mapping that holds
    /// `addr`, or `None` when the kernel prints none.
    fn thp_eligible(addr: usize) -> Option<bool> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            let first = line.split_whitespace().next().unwrap_or("");
            let range = first.split_once('-').and_then(|(lo, hi)| {
                Some(usize::from_str_radix(lo, 16).ok()?..usize::from_str_radix(hi, 16).ok()?)
            });
            if let Some(range) = range {
                inside = range.contains(&addr);
            } else if inside {
                if let Some(flag) = line.strip_prefix("THPeligible:") {
                    return Some(flag.trim() == "1");
                }
            }
        }
        None
    }

    #[test]
    fn weight_buffers_lie_in_huge_page_eligible_mappings() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_else(|_| "not built into this kernel".into());
        if !(mode.contains("[always]") || mode.contains("[madvise]")) {
            eprintln!("skipped: transparent huge pages are {:?} here", mode.trim());
            return;
        }
        // 12 MiB: whole 2 MiB pages inside it wherever the allocator put it.
        let t = Tensor::uniform(Shape::new(vec![3 << 20]), 7, -1.0, 1.0);
        let first_huge_page = (t.data().as_ptr() as usize).next_multiple_of(2 << 20);
        match thp_eligible(first_huge_page) {
            Some(eligible) => assert!(eligible, "a 12 MiB weight buffer is not THP-eligible"),
            None => eprintln!("skipped: this kernel's smaps has no THPeligible field"),
        }
    }
}
