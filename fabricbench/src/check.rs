//! The correctness gate: properties every run must have, and the digest
//! that pins a seed's exact behaviour.

use crate::util::Digest;
use crate::workloads::{Outcome, RATE_BPS};
use pifo_core::prelude::*;

/// Digests recorded for known seeds, `workload<TAB>seed<TAB>digest`.
const RECORDED: &str = include_str!("../digests.tsv");

pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split('\t');
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Every port's departures and drop count, the misroutes, and for the
/// lossless fabric its round and pause counts.
pub fn digest(o: &Outcome) -> u64 {
    let mut d = Digest::new();
    for (i, port) in o.ports.iter().enumerate() {
        d.word(i as u64);
        d.word(port.drops);
        d.word(port.departures.len() as u64);
        for dep in &port.departures {
            let p = &dep.packet;
            d.word(p.flow.0 as u64);
            d.word(p.seq_in_flow);
            d.word(p.length as u64);
            d.word(p.arrival.as_nanos());
            d.word(dep.start.as_nanos());
            d.word(dep.finish.as_nanos());
        }
    }
    d.word(o.misrouted);
    if let Some(l) = &o.lossless {
        d.word(l.rounds);
        d.word(l.pauses as u64);
    }
    d.finish()
}

/// Violations of the properties every workload's run must have. Empty
/// means the run is correct.
pub fn verify(o: &Outcome) -> Vec<String> {
    let mut errs = o.pool_errors.clone();
    let (offered, departed, dropped) = (o.offered, o.departed(), o.dropped());
    if departed + dropped + o.misrouted != offered {
        errs.push(format!(
            "conservation: departed {departed} + dropped {dropped} + misrouted {} != offered {offered}",
            o.misrouted
        ));
    }
    // Every workload is sized so that nothing is dropped or misrouted.
    if dropped != 0 || o.misrouted != 0 {
        errs.push(format!("{dropped} drops and {} misroutes", o.misrouted));
    }

    let mut seen = o.arrivals.as_ref().map(|a| vec![false; a.len()]);
    let mut last_seq: Vec<Option<u64>> = Vec::new();
    for (i, port) in o.ports.iter().enumerate() {
        let mut link_free = Nanos::ZERO;
        for dep in &port.departures {
            let p = &dep.packet;
            if dep.start < p.arrival || dep.wait != dep.start - p.arrival {
                errs.push(format!("port {i}: packet {} wait is inconsistent", p.id.0));
            }
            if dep.start < link_free {
                errs.push(format!(
                    "port {i}: packet {} overlaps the previous one",
                    p.id.0
                ));
            }
            if dep.finish != dep.start + tx_time(p.length as u64, RATE_BPS) {
                errs.push(format!("port {i}: packet {} not sent at line rate", p.id.0));
            }
            link_free = dep.finish;

            // Per-flow FIFO: STFQ start tags rise within a flow.
            let f = p.flow.0 as usize;
            if f >= last_seq.len() {
                last_seq.resize(f + 1, None);
            }
            if last_seq[f].is_some_and(|s| s >= p.seq_in_flow) {
                errs.push(format!(
                    "flow {f}: packet {} departs out of order",
                    p.seq_in_flow
                ));
            }
            last_seq[f] = Some(p.seq_in_flow);

            if let (Some(seen), Some(arrivals)) = (seen.as_mut(), o.arrivals.as_ref()) {
                let id = p.id.0 as usize;
                match arrivals.get(id) {
                    Some(a) if !seen[id] && a == p => seen[id] = true,
                    _ => errs.push(format!("packet {id} departs twice or was never offered")),
                }
            }
            if errs.len() > 20 {
                return errs;
            }
        }
    }

    if let Some(l) = &o.lossless {
        if let Some(stall) = &l.stall {
            errs.push(format!("lossless run stalled: {stall}"));
        }
        if l.pauses != l.resumes {
            errs.push(format!("{} pauses but {} resumes", l.pauses, l.resumes));
        }
        if l.skid_overflow != 0 {
            errs.push(format!("{} skid-buffer overflows", l.skid_overflow));
        }
        if l.max_pool_live > l.min_pool_capacity {
            errs.push(format!(
                "pool peak {} exceeds min_pool_capacity {}",
                l.max_pool_live, l.min_pool_capacity
            ));
        }
    }
    errs
}

/// Peak packets resident in the packet buffers, replayed from the
/// outcome: a packet is resident from its arrival until its
/// transmission starts (arrivals first at equal instants).
pub fn peak_resident(o: &Outcome) -> u64 {
    let mut events: Vec<(u64, i8)> = Vec::new();
    for port in &o.ports {
        for dep in &port.departures {
            events.push((dep.packet.arrival.as_nanos(), 1));
            events.push((dep.start.as_nanos(), -1));
        }
    }
    events.sort_unstable_by_key(|&(t, delta)| (t, -delta));
    let (mut live, mut peak) = (0i64, 0i64);
    for (_, delta) in events {
        live += delta as i64;
        peak = peak.max(live);
    }
    peak as u64
}
