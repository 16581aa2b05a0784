//! Pins the calling thread to one CPU. A deployment made there sees
//! `available_parallelism() == 1` and hosts every role (StateFlow's
//! coordinator and workers, StateFun's tasks, remote workers, egress reader
//! and controller) on one engine thread, which inherits the pin.

/// Runs `f` with the calling thread restricted to the first CPU it may use,
/// then restores the thread's CPU mask (also when `f` panics).
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    let _restore = pin::Pinned::first_cpu();
    f()
}

/// Runs `f` with the calling thread kept off the CPU [`on_one_cpu`] pins
/// to, then restores the thread's CPU mask; `None`, without running `f`,
/// when the thread may run on that CPU alone.
#[allow(dead_code)] // not every test binary has a client beside the engine
pub fn off_that_cpu<R>(f: impl FnOnce() -> R) -> Option<R> {
    let _restore = pin::Pinned::all_but_first_cpu()?;
    Some(f())
}

#[cfg(target_os = "linux")]
mod pin {
    /// A CPU mask as `sched_{get,set}affinity(2)` read and write it: bit
    /// *n* is CPU *n*, for CPUs below 1024.
    type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    fn set(mask: &Mask) {
        // SAFETY: the kernel reads `cpusetsize` bytes from `mask`, a live
        // array of exactly that size; pid 0 is the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
        assert_eq!(rc, 0, "sched_setaffinity refused");
    }

    /// The calling thread's mask before it was pinned; restored on drop.
    pub struct Pinned(Mask);

    fn get() -> Mask {
        let mut mask: Mask = [0; 16];
        // SAFETY: the kernel writes at most `cpusetsize` bytes to `mask`, a
        // live array of exactly that size; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(rc, 0, "sched_getaffinity refused");
        mask
    }

    /// The first CPU of `mask`, as a mask.
    fn first(mask: &Mask) -> Mask {
        let word = mask.iter().position(|&w| w != 0).expect("some CPU allowed");
        let mut one: Mask = [0; 16];
        one[word] = 1 << mask[word].trailing_zeros();
        one
    }

    impl Pinned {
        pub fn first_cpu() -> Pinned {
            let old = get();
            set(&first(&old));
            Pinned(old)
        }

        pub fn all_but_first_cpu() -> Option<Pinned> {
            let old = get();
            let first = first(&old);
            let rest: Mask = std::array::from_fn(|i| old[i] & !first[i]);
            if rest.iter().all(|&w| w == 0) {
                return None;
            }
            set(&rest);
            Some(Pinned(old))
        }
    }

    impl Drop for Pinned {
        fn drop(&mut self) {
            set(&self.0);
        }
    }
}

/// Elsewhere the deployment keeps the layout of the host's parallelism.
#[cfg(not(target_os = "linux"))]
mod pin {
    pub struct Pinned;

    impl Pinned {
        pub fn first_cpu() -> Pinned {
            Pinned
        }

        pub fn all_but_first_cpu() -> Option<Pinned> {
            None
        }
    }
}
