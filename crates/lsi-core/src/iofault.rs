//! Injectable I/O faults and bounded retry for persistence paths.
//!
//! Durable writes in this crate (journal appends, atomic snapshot
//! rewrites, checkpoint compaction) route their bytes through the
//! thread-scoped [`io_faults`] injector. In production the injector is
//! disarmed and writes pass straight through; tests arm a
//! [`WriteFault`](lsi_linalg::faults::WriteFault) to prove that every
//! persistence path surfaces a typed [`StorageError`] and leaves exact
//! pre-state when the device crashes, fills up, or hiccups mid-write.
//!
//! [`RetryPolicy`] is the bounded retry-with-backoff companion: it
//! retries an operation only when the underlying I/O error is transient
//! ([`is_transient`]), sleeping exponentially longer between attempts, so
//! a [`WriteFault::Transient`](lsi_linalg::faults::WriteFault::Transient)
//! hiccup is ridden out while hard faults (ENOSPC, crash) surface on the
//! first attempt.

use std::time::Duration;

use crate::storage::StorageError;

/// True for I/O error kinds worth retrying: the operation may succeed if
/// simply re-attempted ([`Interrupted`](std::io::ErrorKind::Interrupted),
/// [`WouldBlock`](std::io::ErrorKind::WouldBlock),
/// [`TimedOut`](std::io::ErrorKind::TimedOut)). Everything else — ENOSPC,
/// permission errors, torn-write crashes — is treated as hard and
/// surfaced immediately.
pub fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Bounded retry-with-backoff for persistence operations.
///
/// [`run`](Self::run) re-invokes the operation on transient I/O errors
/// (per [`is_transient`]) up to `max_attempts` total attempts, sleeping
/// `base_delay * 2^attempt` between tries. Non-transient errors and
/// non-I/O [`StorageError`]s are returned immediately — retrying a
/// corrupt-data error or a full disk only wastes time.
///
/// ```
/// use lsi_core::RetryPolicy;
///
/// let mut calls = 0;
/// let out: Result<u32, _> = RetryPolicy::default().run(|| {
///     calls += 1;
///     if calls < 2 {
///         Err(std::io::Error::from(std::io::ErrorKind::WouldBlock).into())
///     } else {
///         Ok(7)
///     }
/// });
/// assert_eq!(out.unwrap(), 7);
/// assert_eq!(calls, 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Must be at least 1.
    pub max_attempts: u32,
    /// Sleep before retry `n` is `base_delay * 2^(n-1)`.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts with a 1 ms base delay (1 ms, then 2 ms).
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// Runs `op`, retrying transient I/O failures with exponential
    /// backoff. Returns the first success, the first hard error, or the
    /// last transient error once attempts are exhausted.
    pub fn run<T>(
        &self,
        mut op: impl FnMut() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(StorageError::Io(e)) if is_transient(&e) && attempt + 1 < attempts => {
                    std::thread::sleep(self.base_delay * 2u32.pow(attempt.min(16)));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Thread-scoped write-fault injector for durable persistence paths.
///
/// Tests [`arm`](io_faults::arm) a fault; while the returned guard lives,
/// every byte written through a [`MaybeFaulty`](io_faults::MaybeFaulty)
/// wrapper or [`write_all`](io_faults::write_all) *on the arming thread*
/// is metered against the fault's byte boundary. Writes on every other
/// thread pass straight through, so concurrently running tests never see
/// each other's faults; dropping the guard disarms.
pub mod io_faults {
    use std::cell::RefCell;
    use std::io::Write;
    use std::marker::PhantomData;

    use lsi_linalg::faults::{FaultState, WriteFault};

    struct Armed {
        fault: WriteFault,
        state: FaultState,
    }

    thread_local! {
        static ARMED: RefCell<Option<Armed>> = const { RefCell::new(None) };
    }

    /// Keeps the fault armed on this thread while alive; disarms on drop.
    /// The guard is `!Send`: it disarms the thread that armed it.
    #[must_use = "the fault is disarmed as soon as the guard drops"]
    pub struct FaultGuard {
        _not_send: PhantomData<*const ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            ARMED.set(None);
        }
    }

    impl std::fmt::Debug for FaultGuard {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("FaultGuard")
        }
    }

    /// Arms `fault` for the calling thread and returns the disarming
    /// guard. Arm one fault per thread at a time: arming again replaces
    /// the fault, and dropping either guard disarms.
    pub fn arm(fault: WriteFault) -> FaultGuard {
        ARMED.set(Some(Armed {
            fault,
            state: FaultState::default(),
        }));
        FaultGuard {
            _not_send: PhantomData,
        }
    }

    /// Bytes the fault armed on this thread has seen committed, and how
    /// often it fired; `None` when disarmed. Lets tests assert the fault
    /// actually triggered rather than silently missing the write path.
    pub fn armed_state() -> Option<(u64, u32)> {
        ARMED.with_borrow(|armed| armed.as_ref().map(|a| (a.state.written, a.state.fired)))
    }

    fn filtered_write<W: Write>(inner: &mut W, buf: &[u8]) -> std::io::Result<usize> {
        // The borrow is released before the inner commit: `inner` may
        // itself route through this injector (it should not, but a nested
        // wrap must double-filter, never panic on a held borrow).
        let decision = ARMED.with_borrow_mut(|armed| {
            armed
                .as_mut()
                .map(|a| a.fault.decide(&mut a.state, buf.len()))
        });
        match decision {
            None => inner.write(buf),
            Some((commit, err)) => {
                inner.write_all(&buf[..commit])?;
                ARMED.with_borrow_mut(|armed| {
                    if let Some(a) = armed.as_mut() {
                        a.state.written += commit as u64;
                    }
                });
                match err {
                    Some(e) => Err(e),
                    None => Ok(commit),
                }
            }
        }
    }

    /// An [`std::io::Write`] adapter that meters every write against the
    /// fault armed on the writing thread (pass-through when disarmed).
    #[derive(Debug)]
    pub struct MaybeFaulty<W: Write> {
        inner: W,
    }

    impl<W: Write> MaybeFaulty<W> {
        /// Wraps `inner` behind the injector.
        pub fn new(inner: W) -> Self {
            Self { inner }
        }

        /// Shared access to the wrapped writer (e.g. to `sync_all` a
        /// [`File`](std::fs::File)).
        pub fn inner(&self) -> &W {
            &self.inner
        }

        /// Unwraps the inner writer.
        pub fn into_inner(self) -> W {
            self.inner
        }
    }

    impl<W: Write> Write for MaybeFaulty<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            filtered_write(&mut self.inner, buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    /// `write_all` through the injector: loops on partial progress and
    /// surfaces `Ok(0)` as [`WriteZero`](std::io::ErrorKind::WriteZero),
    /// exactly like [`std::io::Write::write_all`] — but without the
    /// standard library's silent `Interrupted` retry, so injected
    /// transient faults reach the caller's [`RetryPolicy`](super::RetryPolicy).
    pub fn write_all<W: Write>(w: &mut W, mut buf: &[u8]) -> std::io::Result<()> {
        while !buf.is_empty() {
            match filtered_write(w, buf) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "failed to write whole buffer",
                    ));
                }
                Ok(n) => buf = &buf[n..],
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::io_faults;
    use super::*;
    use lsi_linalg::faults::WriteFault;
    use std::io::Write;

    #[test]
    fn disarmed_writer_passes_through() {
        let mut w = io_faults::MaybeFaulty::new(Vec::new());
        w.write_all(b"hello world").unwrap();
        assert_eq!(w.inner(), b"hello world");
    }

    #[test]
    fn enospc_commits_prefix_and_surfaces_storage_full() {
        let _guard = io_faults::arm(WriteFault::Enospc { after: 4 });
        let mut w = io_faults::MaybeFaulty::new(Vec::new());
        let err = w.write_all(b"abcdefgh").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert_eq!(w.inner(), b"abcd");
        assert_eq!(io_faults::armed_state(), Some((4, 1)));
    }

    #[test]
    fn short_write_becomes_write_zero() {
        let _guard = io_faults::arm(WriteFault::ShortWrite { after: 3 });
        let mut out = Vec::new();
        let err = io_faults::write_all(&mut out, b"abcdefgh").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        assert_eq!(out, b"abc");
    }

    #[test]
    fn transient_fault_clears_after_n_failures() {
        let _guard = io_faults::arm(WriteFault::Transient {
            after: 0,
            failures: 2,
        });
        let mut out = Vec::new();
        for _ in 0..2 {
            let err = io_faults::write_all(&mut out, b"abc").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
            assert!(out.is_empty(), "transient fault must commit nothing");
        }
        io_faults::write_all(&mut out, b"abc").unwrap();
        assert_eq!(out, b"abc");
    }

    #[test]
    fn retry_policy_rides_out_transient_faults() {
        let mut calls = 0u32;
        let out = RetryPolicy::default().run(|| {
            calls += 1;
            if calls < 3 {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock).into())
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3);
    }

    #[test]
    fn retry_policy_surfaces_hard_errors_immediately() {
        let mut calls = 0u32;
        let out: Result<(), _> = RetryPolicy::default().run(|| {
            calls += 1;
            Err(std::io::Error::from(std::io::ErrorKind::StorageFull).into())
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "hard errors must not be retried");
    }

    #[test]
    fn retry_policy_gives_up_after_max_attempts() {
        let mut calls = 0u32;
        let out: Result<(), _> = RetryPolicy::default().run(|| {
            calls += 1;
            Err(std::io::Error::from(std::io::ErrorKind::WouldBlock).into())
        });
        assert!(out.is_err());
        assert_eq!(calls, 3);
    }
}
