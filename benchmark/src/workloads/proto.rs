//! [`Spanned`]: a `DtmProtocol` that forwards to the protocol under test
//! and records, from outside, a latency sample per commit and (when
//! traced) a virtual-time span around every `begin → read / write / commit
//! / restart` call. The bank workloads and the open-loop driver all run on
//! it, traced or not, so both kinds of run execute the same code.

use std::rc::Rc;

use qrdtm_core::protocol::ProtocolStats;
use qrdtm_core::{Abort, DtmProtocol, ObjVal, ObjectId, SimHosted};
use qrdtm_sim::{NodeId, Sim, SimDuration, SimTime};

use crate::spans::Recorder;

/// The protocol under test plus the recorder its calls report to.
pub struct Spanned<P> {
    inner: Rc<P>,
    rec: Rc<Recorder>,
    /// Deadline the open-loop driver arms on every request, used to
    /// recover a request's arrival instant from `set_deadline`.
    deadline: SimDuration,
}

/// A transaction handle of the wrapped protocol with its span ids.
pub struct SpannedTx<H> {
    h: H,
    txn: u64,
    span: u32,
    attempt: u32,
    /// Closed-loop client index (starvation check); `None` for open-loop
    /// workers, which the library spawns.
    client: Option<usize>,
    /// When the request entered the system: `begin` for closed loops, the
    /// arrival instant for open-loop requests.
    start_ns: u64,
}

impl<P: SimHosted> Spanned<P> {
    pub fn new(inner: Rc<P>, rec: Rc<Recorder>, deadline: SimDuration) -> Self {
        Spanned {
            inner,
            rec,
            deadline,
        }
    }

    pub fn inner(&self) -> &Rc<P> {
        &self.inner
    }

    /// `begin` on behalf of closed-loop client `client`.
    pub fn begin_as(&self, node: NodeId, client: usize) -> SpannedTx<P::TxHandle> {
        let mut tx = self.begin(node);
        tx.client = Some(client);
        tx
    }
}

impl<P: SimHosted> DtmProtocol for Spanned<P> {
    type TxHandle = SpannedTx<P::TxHandle>;

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    fn preload(&self, oid: ObjectId, val: ObjVal) {
        self.inner.preload(oid, val);
    }

    fn begin(&self, node: NodeId) -> Self::TxHandle {
        let txn = self.rec.next_txn();
        let start_ns = self.rec.now();
        let span = self.rec.open_txn(txn);
        let attempt = self.rec.open(span, txn, "attempt");
        SpannedTx {
            h: self.inner.begin(node),
            txn,
            span,
            attempt,
            client: None,
            start_ns,
        }
    }

    async fn read(&self, tx: &mut Self::TxHandle, oid: ObjectId) -> Result<ObjVal, Abort> {
        let s = self.rec.open(tx.attempt, tx.txn, "read");
        let r = self.inner.read(&mut tx.h, oid).await;
        self.rec.close(s);
        r
    }

    async fn write(
        &self,
        tx: &mut Self::TxHandle,
        oid: ObjectId,
        val: ObjVal,
    ) -> Result<(), Abort> {
        let s = self.rec.open(tx.attempt, tx.txn, "write");
        let r = self.inner.write(&mut tx.h, oid, val).await;
        self.rec.close(s);
        r
    }

    async fn commit(&self, tx: &mut Self::TxHandle) -> Result<(), Abort> {
        // The body has returned: the attempt ends where the commit starts.
        self.rec.close(tx.attempt);
        tx.attempt = 0;
        let s = self.rec.open(tx.span, tx.txn, "commit");
        let r = self.inner.commit(&mut tx.h).await;
        self.rec.close(s);
        if r.is_ok() {
            self.rec.close(tx.span);
            self.rec.committed(tx.client, tx.start_ns);
        }
        r
    }

    async fn restart(&self, tx: &mut Self::TxHandle, abort: Abort) {
        self.rec.close(tx.attempt);
        let s = self.rec.open(tx.span, tx.txn, "restart");
        self.inner.restart(&mut tx.h, abort).await;
        self.rec.close(s);
        tx.attempt = self.rec.open(tx.span, tx.txn, "attempt");
    }

    fn set_deadline(&self, tx: &mut Self::TxHandle, deadline: Option<SimTime>) {
        if let Some(d) = deadline {
            // The open-loop driver stamps `arrival + deadline` on each job;
            // latency counts from the arrival, queue wait included.
            tx.start_ns = d.as_nanos().saturating_sub(self.deadline.as_nanos());
        }
        self.inner.set_deadline(&mut tx.h, deadline);
    }

    fn protocol_stats(&self) -> ProtocolStats {
        self.inner.protocol_stats()
    }

    fn reset_protocol_stats(&self) {
        self.inner.reset_protocol_stats();
    }
}

impl<P: SimHosted> SimHosted for Spanned<P> {
    type Msg = P::Msg;

    fn sim(&self) -> &Sim<Self::Msg> {
        self.inner.sim()
    }
}
