//! Host-side measurements: process CPU time, heap bytes held and bytes
//! the process wrote to storage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (user + system, all threads) in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` laid out as the C ABI
    // expects on 64-bit Linux (two 64-bit fields), and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A counter on a cache line of its own, so the submitter and the worker
/// threads updating `LIVE` do not also bounce `PEAK`.
#[repr(align(64))]
struct Padded(AtomicIsize);

/// Whether allocations are being counted. Off, the allocator costs one
/// load of a flag that is rarely written; on, it costs atomic updates
/// the engine's threads contend on, so timed rounds run with it off.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Heap bytes allocated minus bytes freed since [`heap_count_start`].
static LIVE: Padded = Padded(AtomicIsize::new(0));
/// Largest `LIVE` since [`heap_count_start`].
static PEAK: Padded = Padded(AtomicIsize::new(0));

/// The system allocator, able to count the bytes it hands out so a round
/// can measure the heap the engine holds apart from the benchmark's own
/// buffers. `Relaxed` suffices: counting starts before the engine's
/// threads are spawned and stops after they are joined.
pub struct Counting;

impl Counting {
    fn grow(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            let live = LIVE.0.fetch_add(size as isize, Ordering::Relaxed) + size as isize;
            if live > PEAK.0.load(Ordering::Relaxed) {
                PEAK.0.fetch_max(live, Ordering::Relaxed);
            }
        }
    }

    fn shrink(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.0.fetch_sub(size as isize, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded to `System` with the caller's layout
// and pointer unchanged; the counters do not affect what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::shrink(layout.size());
            Self::grow(new_size);
        }
        p
    }
}

/// Start counting heap bytes from zero.
pub fn heap_count_start() {
    LIVE.0.store(0, Ordering::Relaxed);
    PEAK.0.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Stop counting, and return the most bytes held at once, over what was
/// held when counting started.
pub fn heap_count_stop() -> usize {
    COUNTING.store(false, Ordering::Relaxed);
    PEAK.0.load(Ordering::Relaxed).max(0) as usize
}

/// Serialises the tests that count the heap: the counters are global.
#[cfg(test)]
pub static HEAP_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Bytes this process has caused to be sent to storage
/// (`/proc/self/io` `write_bytes`; 0 where the kernel does not account).
pub fn io_write_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("write_bytes:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > a);
    }

    #[test]
    fn the_heap_peak_counts_bytes_held_at_once() {
        let _serial = HEAP_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let held = vec![0u8; 1 << 20];
        heap_count_start();
        let a = vec![1u8; 1 << 20];
        let b = vec![2u8; 1 << 20];
        drop(a);
        drop(b);
        // Freeing a block allocated before the start counts against the
        // peak no more than it should: the peak stays at two blocks.
        drop(held);
        let c = vec![3u8; 1 << 20];
        drop(c);
        let peak = heap_count_stop();
        // Tests that do not run rounds allocate concurrently, a little.
        assert!((2 << 20..3 << 20).contains(&peak), "{peak}");
    }
}
