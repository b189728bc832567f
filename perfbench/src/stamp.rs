//! A [`BusMaster`] wrapper that timestamps every access at the master
//! port, so per-operation latency comes from exact samples instead of the
//! power-of-two buckets of `Histogram::quantile`.
//!
//! The wrapper forwards `tick`, `next_wake`, `halted`, `label` and `stats`
//! to the inner master unchanged, so the simulation it takes part in is
//! the same one the unwrapped master would produce.

use secbus_bus::{Op, Response, TxnId, Width};
use secbus_cpu::{BusMaster, MasterAccess};
use secbus_sim::{Cycle, Stats, Wake};

/// One access as the master saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Transaction id the interconnect returned at issue.
    pub txn: TxnId,
    /// Read or write.
    pub op: Op,
    /// Target address.
    pub addr: u32,
    /// Access width.
    pub width: Width,
    /// Write data (0 for reads).
    pub data: u32,
    /// Cycle of the `issue` call.
    pub issued: u64,
    /// Cycle of the `poll` that returned the response.
    pub completed: u64,
    /// Whether the response carried no error.
    pub ok: bool,
    /// Read data returned (0 for writes).
    pub read_data: u32,
}

impl OpRecord {
    /// Issue-to-completion latency in cycles.
    pub fn latency(&self) -> u64 {
        self.completed - self.issued
    }
}

/// The timestamping wrapper.
pub struct Stamped {
    inner: Box<dyn BusMaster>,
    open: Vec<OpRecord>,
    done: Vec<OpRecord>,
}

impl Stamped {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn BusMaster>) -> Self {
        Stamped {
            inner,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// The wrapped master.
    pub fn inner(&self) -> &dyn BusMaster {
        self.inner.as_ref()
    }

    /// Completed accesses, in completion order.
    pub fn completed(&self) -> &[OpRecord] {
        &self.done
    }
}

/// The port view handed to the inner master for one tick.
struct Port<'a> {
    mem: &'a mut dyn MasterAccess,
    open: &'a mut Vec<OpRecord>,
    done: &'a mut Vec<OpRecord>,
    now: u64,
}

impl MasterAccess for Port<'_> {
    fn issue(&mut self, op: Op, addr: u32, width: Width, data: u32, burst: u16) -> TxnId {
        let txn = self.mem.issue(op, addr, width, data, burst);
        self.open.push(OpRecord {
            txn,
            op,
            addr,
            width,
            data,
            issued: self.now,
            completed: 0,
            ok: false,
            read_data: 0,
        });
        txn
    }

    fn poll(&mut self) -> Option<Response> {
        let resp = self.mem.poll()?;
        // A response for an id no longer open is a dead letter the inner
        // master accounts itself; it completes nothing here.
        if let Some(pos) = self.open.iter().position(|o| o.txn == resp.txn) {
            let mut rec = self.open.swap_remove(pos);
            rec.completed = self.now;
            rec.ok = resp.is_ok();
            rec.read_data = if rec.op == Op::Read { resp.data } else { 0 };
            self.done.push(rec);
        }
        Some(resp)
    }
}

impl BusMaster for Stamped {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn tick(&mut self, mem: &mut dyn MasterAccess, now: Cycle) {
        let mut port = Port {
            mem,
            open: &mut self.open,
            done: &mut self.done,
            now: now.get(),
        };
        self.inner.tick(&mut port, now);
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn next_wake(&self, now: Cycle) -> Wake {
        self.inner.next_wake(now)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn stats(&self) -> &Stats {
        self.inner.stats()
    }
}
