//! A host-memory prefetch hint for simulated arrays that are far larger
//! than the host's caches.
//!
//! The round kernel knows, before it runs a batch, which cache sets and
//! probe-filter sets the batch will touch. Hinting them a few items ahead
//! lets the host's memory system fetch the next set while the current one
//! is being scanned. A hint is invisible to the simulation: it reads no
//! value and changes no state, so every report stays byte-identical.

/// Size of a host cache line, the granularity a prefetch fetches.
const HOST_LINE_BYTES: usize = 64;

/// Hints the host CPU to start loading every host cache line `span`
/// occupies into its caches.
///
/// A no-op on targets other than x86_64, and for an empty span.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch<T>(span: &[T]) {
    let bytes = std::mem::size_of_val(span);
    if bytes == 0 {
        return;
    }
    let start = span.as_ptr().cast::<i8>();
    let addr = start as usize;
    let mut line = addr & !(HOST_LINE_BYTES - 1);
    let last = (addr + bytes - 1) & !(HOST_LINE_BYTES - 1);
    while line <= last {
        // Offsetting from `start` keeps the pointer's provenance; the first
        // line may begin before `start`, hence the wrapping arithmetic.
        let ptr = start.wrapping_add(line.wrapping_sub(addr));
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` is a hint: it never faults and never reads
        // memory architecturally, whatever the address, so no pointer
        // validity is required. Its only precondition is the `sse` target
        // feature, which every x86_64 CPU has.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = ptr;
        line += HOST_LINE_BYTES;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_accepts_empty_unaligned_and_multi_line_spans() {
        let words = vec![7u64; 1000];
        prefetch::<u64>(&[]);
        prefetch(&words[..1]);
        prefetch(&words[3..500]);
        prefetch(&words);
        assert!(words.iter().all(|&w| w == 7));
    }
}
