//! The correctness gate: answers the timed phases captured are compared,
//! untimed, with an uncached reference service (`bypass_cache`) that shares
//! the measured service's `VersionedDatabase`.

use std::sync::Arc;

use sqo_exec::ResultSet;
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_workload::MixedOp;

use crate::closed::{Captured, Ctx};

pub struct Gate {
    reference: QueryService,
    /// Reference answers by distinct query as `(data epoch, content
    /// fingerprint, rows)`: kept small, so the gate adds little to the
    /// process's peak memory.
    answers: Vec<Option<(u64, u64, usize)>>,
    /// Answers compared so far.
    pub checked: u64,
}

impl Gate {
    pub fn new(service: &QueryService, distinct: usize) -> Self {
        Self {
            reference: QueryService::with_versioned_db(
                service.store(),
                Arc::clone(service.versioned_db()),
                ServiceConfig { bypass_cache: true, ..ServiceConfig::default() },
            ),
            answers: vec![None; distinct],
            checked: 0,
        }
    }

    /// The reference answer's `(data epoch, fingerprint, rows)` for query
    /// `index` at the current data epoch.
    fn expected(&mut self, index: usize, query: &Query) -> Result<(u64, u64, usize), String> {
        let epoch = self.reference.data_epoch();
        match self.answers[index] {
            Some(answer) if answer.0 == epoch => Ok(answer),
            _ => {
                let r = self.reference.run(query).map_err(|e| format!("reference: {e}"))?;
                let answer = (r.data_epoch, r.results.fingerprint(), r.results.len());
                self.answers[index] = Some(answer);
                Ok(answer)
            }
        }
    }

    fn compare(&mut self, index: usize, query: &Query, got: &ResultSet) -> Result<(), String> {
        let (epoch, fingerprint, rows) = self.expected(index, query)?;
        self.checked += 1;
        if got.fingerprint() == fingerprint {
            Ok(())
        } else {
            Err(format!(
                "answer to distinct query {index} differs from the uncached reference at data \
                 epoch {epoch} ({} rows served, {rows} expected)",
                got.len()
            ))
        }
    }

    /// Checks every captured answer that holds at the current data epoch
    /// (without writes, every one) and that the service still holds.
    /// Without writes every phase must leave answers to check.
    pub fn check_captured(&mut self, ctx: &Ctx<'_>, captured: &[Captured]) -> Result<(), String> {
        let distinct = &ctx.inputs.distinct;
        let epoch = self.reference.data_epoch();
        let before = self.checked;
        for per_client in captured {
            for (index, slot) in per_client.iter().enumerate() {
                if let Some((Some(at), answer)) = slot {
                    if let (true, Some(answer)) = (*at == epoch, answer.upgrade()) {
                        self.compare(index, &distinct[index], &answer)?;
                    }
                }
            }
        }
        if ctx.writer.is_none() && self.checked == before {
            return Err("a phase captured no answer the gate could check".into());
        }
        Ok(())
    }

    /// The E11 check: one client replays `len` ops of the stream from
    /// `offset`; every read, and after every write every distinct query, is
    /// compared with the reference.
    pub fn check_prefix(&mut self, ctx: &Ctx<'_>, offset: usize, len: usize) -> Result<(), String> {
        let ops = &ctx.inputs.ops;
        for i in 0..len {
            match &ops[(offset + i) % ops.len()] {
                MixedOp::Read { index, query } => {
                    let got = ctx.service.run(query).map_err(|e| format!("run: {e}"))?;
                    self.compare(*index, query, &got.results)?;
                }
                MixedOp::Write(kind) => {
                    let writer = ctx.writer.ok_or("a write op needs a writer")?;
                    writer.apply(ctx.service, kind)?;
                    for (index, query) in ctx.inputs.distinct.iter().enumerate() {
                        let got = ctx.service.run(query).map_err(|e| format!("run: {e}"))?;
                        self.compare(index, query, &got.results)?;
                    }
                }
            }
        }
        Ok(())
    }
}
