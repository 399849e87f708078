//! Per-thread handles onto the PM substrate.

use crate::trace::TracerHandle;

/// Per-thread PM state: the virtual clock and the last flushed address used
/// for sequential/random classification.
///
/// Obtain one per worker thread via [`crate::PmemPool::register_thread`] and
/// pass it (mutably) to every flush/fence call. Keeping this explicit instead
/// of thread-local makes benchmarks deterministic and lets a harness collect
/// all virtual clocks at the end of a run.
///
/// A [`TracerHandle`] may be attached with [`PmThread::set_tracer`]; every
/// module that already receives a `PmThread` can then emit flight-recorder
/// events via [`PmThread::trace`] with no extra plumbing.
#[derive(Debug)]
pub struct PmThread {
    id: usize,
    virtual_ns: u64,
    last_flush_addr: Option<u64>,
    /// Modelled nanoseconds not yet slept off in `LatencyMode::Sleep`
    /// (sleeps are batched into quanta; see `LatencyModel::charge`).
    sleep_debt: u64,
    tracer: Option<TracerHandle>,
    /// Flush calls issued since this thread's last fence (always
    /// maintained; lets [`crate::PmemPool::fence_pending`] skip fences
    /// that would order nothing).
    pub(crate) flushed_since_fence: u32,
    /// pmsan bookkeeping: lines this thread flushed since its last
    /// fence, with the store generation each flush captured. Stays empty
    /// when the pool's sanitizer is off.
    pub(crate) pmsan_pending: Vec<(u64, u32)>,
}

impl PmThread {
    pub(crate) fn new(id: usize) -> Self {
        PmThread {
            id,
            virtual_ns: 0,
            last_flush_addr: None,
            sleep_debt: 0,
            tracer: None,
            flushed_since_fence: 0,
            pmsan_pending: Vec::new(),
        }
    }

    /// Identifier assigned at registration (dense, starting at 0).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Modelled nanoseconds this thread has spent waiting on PM.
    pub fn virtual_ns(&self) -> u64 {
        self.virtual_ns
    }

    /// Reset the virtual clock (between benchmark phases).
    pub fn reset_clock(&mut self) {
        self.virtual_ns = 0;
    }

    /// Start a span on this thread's virtual clock (telemetry latency
    /// measurements). Reading the clock does not advance it.
    pub fn span(&self) -> ClockSpan {
        ClockSpan { start_ns: self.virtual_ns }
    }

    /// Attach a flight-recorder emitter; subsequent [`PmThread::trace`]
    /// calls push into its ring.
    pub fn set_tracer(&mut self, tracer: TracerHandle) {
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any (cloneable; lets a lock guard keep
    /// emitting after the `PmThread` borrow ends).
    pub fn tracer(&self) -> Option<&TracerHandle> {
        self.tracer.as_ref()
    }

    /// Emit one flight-recorder event stamped with this thread's current
    /// virtual-clock time. No-op (one branch) when no tracer is attached.
    #[inline]
    pub fn trace(&self, code: u16, a: u64, b: u64) {
        if let Some(t) = &self.tracer {
            t.emit(self.virtual_ns, code, a, b);
        }
    }

    #[inline]
    pub(crate) fn accrue_ns(&mut self, ns: u64) {
        self.virtual_ns += ns;
    }

    /// Add `ns` to the sleep debt; when the accumulated debt reaches
    /// `quantum`, return it (reset to 0) for the caller to sleep off.
    #[inline]
    pub(crate) fn add_sleep_debt(&mut self, ns: u64, quantum: u64) -> Option<u64> {
        self.sleep_debt += ns;
        if self.sleep_debt >= quantum {
            let due = self.sleep_debt;
            self.sleep_debt = 0;
            Some(due)
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn last_flush_addr(&self) -> Option<u64> {
        self.last_flush_addr
    }

    #[inline]
    pub(crate) fn set_last_flush_addr(&mut self, addr: u64) {
        self.last_flush_addr = Some(addr);
    }
}

/// A started measurement on a [`PmThread`]'s virtual clock.
///
/// Saturating on both ends: a `reset_clock` between `span()` and
/// `elapsed_ns()` yields 0, never a panic or a wrapped value.
#[derive(Debug, Clone, Copy)]
pub struct ClockSpan {
    start_ns: u64,
}

impl ClockSpan {
    /// Modelled nanoseconds accrued on `t` since the span started.
    pub fn elapsed_ns(&self, t: &PmThread) -> u64 {
        t.virtual_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accrues_and_resets() {
        let mut t = PmThread::new(7);
        assert_eq!(t.id(), 7);
        t.accrue_ns(100);
        t.accrue_ns(50);
        assert_eq!(t.virtual_ns(), 150);
        t.reset_clock();
        assert_eq!(t.virtual_ns(), 0);
    }

    #[test]
    fn span_measures_accrual_and_saturates_across_reset() {
        let mut t = PmThread::new(0);
        t.accrue_ns(10);
        let span = t.span();
        assert_eq!(span.elapsed_ns(&t), 0);
        t.accrue_ns(25);
        assert_eq!(span.elapsed_ns(&t), 25);
        t.reset_clock();
        assert_eq!(span.elapsed_ns(&t), 0, "reset mid-span must not underflow");
    }
}
