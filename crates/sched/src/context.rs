//! Stackful execution contexts for event tasks: lazily committed stacks
//! with a guard page, and the x86_64 register switch between a task and
//! the dispatch loop.
//!
//! A switch saves the System V callee-saved registers (`rbx`, `rbp`,
//! `r12`–`r15`) on the current stack, stores the stack pointer, loads
//! the other context's stack pointer and pops its registers. Everything
//! else is caller-saved, so the compiler already spilled it around the
//! call. The MXCSR and x87 control words are not switched: nothing in
//! the workspace changes them, so every context holds the same values.
//!
//! Only x86_64 Linux has an implementation; elsewhere [`SUPPORTED`] is
//! false and `sched::run` refuses to start, so the stubs never run.

/// Whether this target can run event tasks.
pub(crate) const SUPPORTED: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

#[cfg(test)]
thread_local! {
    /// Stacks mapped and not yet unmapped by the calling thread (tests
    /// check that a run releases every stack it mapped).
    pub(crate) static MAPPED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use std::arch::naked_asm;

    /// Usable bytes of one task stack.
    const STACK_BYTES: usize = 1 << 20;

    /// The `PROT_NONE` page below every stack: an overflow faults there
    /// (SIGSEGV) instead of running into a neighbouring mapping.
    const GUARD_BYTES: usize = 4096;

    mod sys {
        use std::ffi::{c_int, c_long, c_void};
        pub const PROT_NONE: c_int = 0;
        pub const PROT_READ: c_int = 1;
        pub const PROT_WRITE: c_int = 2;
        pub const MAP_PRIVATE: c_int = 0x02;
        pub const MAP_ANONYMOUS: c_int = 0x20;
        pub const MAP_NORESERVE: c_int = 0x4000;
        pub const MAP_STACK: c_int = 0x20000;
        pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
        extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                off: c_long,
            ) -> *mut c_void;
            pub fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
            pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }
    }

    /// One task stack: `GUARD_BYTES` of guard page then `STACK_BYTES` of
    /// stack, mapped `MAP_NORESERVE` and never pre-touched, so a parked
    /// task costs only the pages it actually used.
    pub(crate) struct Stack {
        base: *mut u8,
    }

    impl Stack {
        /// Map a fresh stack. Panics if the address space is exhausted.
        pub(crate) fn new() -> Stack {
            let len = GUARD_BYTES + STACK_BYTES;
            // SAFETY: an anonymous private mapping at a kernel-chosen
            // address aliases nothing; the guard page lies inside it.
            let base = unsafe {
                let p = sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE | sys::MAP_STACK,
                    -1,
                    0,
                );
                assert!(p != sys::MAP_FAILED, "sched: failed to map a task stack");
                assert_eq!(
                    sys::mprotect(p, GUARD_BYTES, sys::PROT_NONE),
                    0,
                    "sched: failed to protect a stack guard page"
                );
                p.cast::<u8>()
            };
            #[cfg(test)]
            super::MAPPED.with(|m| m.set(m.get() + 1));
            Stack { base }
        }

        /// One past the highest usable byte (16-byte aligned: the mapping
        /// is page aligned and both sizes are page multiples).
        fn top(&self) -> *mut u8 {
            self.base.wrapping_add(GUARD_BYTES + STACK_BYTES)
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: `base` is this stack's own mapping, and no context
            // runs on it any more (the scheduler drops a stack only after
            // its task has switched away for the last time).
            unsafe { sys::munmap(self.base.cast(), GUARD_BYTES + STACK_BYTES) };
            #[cfg(test)]
            super::MAPPED.with(|m| m.set(m.get() - 1));
        }
    }

    /// Save the callee-saved registers on the current stack, store the
    /// stack pointer through `save`, then load `to` and resume the
    /// context saved there (a task or the dispatch loop).
    #[unsafe(naked)]
    pub(crate) unsafe extern "sysv64" fn switch(save: *mut *mut u8, to: *mut u8) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First code a task runs: `init` left its argument in `rbx`. The CFI
    /// marks the return address undefined, so unwinders and backtraces
    /// stop here instead of walking off the task stack.
    #[unsafe(naked)]
    unsafe extern "C" fn entry() -> ! {
        naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "mov rdi, rbx",
            "call {main}",
            "ud2",
            ".cfi_endproc",
            main = sym crate::task_main,
        )
    }

    /// Prepare `stack` so that the first [`switch`] to the returned stack
    /// pointer calls `task_main(arg)` on it.
    ///
    /// # Safety
    /// `stack` must not hold a live context.
    pub(crate) unsafe fn init(stack: &Stack, arg: *mut u8) -> *mut u8 {
        // Six saved registers and a return address, popped by `switch`.
        // The frame starts 8 bytes off 16-byte alignment, so `entry` runs
        // with a 16-byte aligned stack pointer and its `call` enters
        // `task_main` with the alignment of any function entry.
        let sp = stack.top().cast::<usize>().wrapping_sub(9);
        let frame = [0, 0, 0, 0, arg as usize, 0, entry as *const () as usize];
        // SAFETY (caller): the stack is mapped, writable and unused.
        unsafe { std::ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len()) };
        sp.cast()
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod imp {
    pub(crate) struct Stack;

    impl Stack {
        pub(crate) fn new() -> Stack {
            unreachable!("event tasks run on x86_64 Linux only")
        }
    }

    pub(crate) unsafe fn switch(_save: *mut *mut u8, _to: *mut u8) {
        unreachable!("event tasks run on x86_64 Linux only")
    }

    pub(crate) unsafe fn init(_stack: &Stack, _arg: *mut u8) -> *mut u8 {
        unreachable!("event tasks run on x86_64 Linux only")
    }
}

pub(crate) use imp::{init, switch, Stack};
