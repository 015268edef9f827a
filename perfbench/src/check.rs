//! Output checks: behaviour fingerprints, their pins, and the tally of
//! failed cells that feeds `failed_share`.

use ggs_sim::stats::{MemCounters, StallClass};
use ggs_sim::ExecStats;

/// The simulated outcome of one cell, as far as the path that ran it
/// exposes it: `run_study` returns rows only, the direct paths also
/// return memory counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// `APP/GRAPH/CONFIG`.
    pub key: String,
    pub cycles: u64,
    pub fractions: [f64; 5],
    pub detail: Option<(u64, [u64; 5], MemCounters)>,
}

impl CellResult {
    pub fn from_stats(key: String, stats: &ExecStats) -> Self {
        Self {
            key,
            cycles: stats.total_cycles,
            fractions: StallClass::ALL.map(|c| stats.breakdown.fraction(c)),
            detail: Some((
                stats.kernels,
                StallClass::ALL.map(|c| stats.breakdown.get(c)),
                stats.mem,
            )),
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// FNV-1a over every cell's key, cycles and stall fractions, in order.
pub fn rows_fingerprint(cells: &[CellResult]) -> u64 {
    let mut h = Fnv::new();
    for cell in cells {
        h.bytes(cell.key.as_bytes());
        h.u64(cell.cycles);
        for f in cell.fractions {
            h.u64(f.to_bits());
        }
    }
    h.0
}

/// [`rows_fingerprint`] extended with kernels, per-class cycles and
/// every `MemCounters` field. `None` when some cell lacks the detail.
pub fn mem_fingerprint(cells: &[CellResult]) -> Option<u64> {
    let mut h = Fnv(rows_fingerprint(cells));
    for cell in cells {
        let (kernels, classes, m) = cell.detail.as_ref()?;
        h.u64(*kernels);
        for c in classes {
            h.u64(*c);
        }
        for v in [
            m.l1_hits,
            m.l1_misses,
            m.l2_hits,
            m.l2_misses,
            m.l2_atomics,
            m.l1_atomics,
            m.registrations,
            m.remote_transfers,
            m.write_throughs,
            m.invalidations,
            m.mshr_stalls,
            m.store_buffer_stalls,
            m.noc_line_transfers,
            m.noc_control_messages,
        ] {
            h.u64(v);
        }
    }
    Some(h.0)
}

/// Pinned fingerprints, one `workload kind hex` triple per line.
#[derive(Debug, Clone)]
pub struct Pins(Vec<(String, String, u64)>);

impl Pins {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut pins = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, kind, hex] = fields[..] else {
                return Err(format!("bad pin line: {line}"));
            };
            let value = u64::from_str_radix(hex, 16).map_err(|e| format!("bad pin {hex}: {e}"))?;
            pins.push((workload.to_owned(), kind.to_owned(), value));
        }
        Ok(Pins(pins))
    }

    pub fn get(&self, workload: &str, kind: &str) -> Option<u64> {
        self.0
            .iter()
            .find(|(w, k, _)| w == workload && k == kind)
            .map(|(_, _, v)| *v)
    }

    /// The same pins with `workload kind` flipped in its lowest bit.
    #[cfg(test)]
    pub fn perturbed(mut self, workload: &str, kind: &str) -> Self {
        for (w, k, v) in &mut self.0 {
            if w == workload && k == kind {
                *v ^= 1;
            }
        }
        self
    }
}

/// The pins this benchmark ships with.
pub fn shipped_pins() -> Pins {
    Pins::parse(include_str!("../pins.txt")).expect("perfbench/pins.txt is well-formed")
}

/// Running tally of the checks made in one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Cells attempted, over every pass of the run.
    pub attempted: u64,
    /// Cells that failed, timed out or belong to a pass whose output
    /// did not match.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Checks made, for the report.
    pub passed: u64,
}

impl Checks {
    /// Records a check covering `cells` cells; when it fails, those
    /// cells count as failed.
    pub fn expect(&mut self, ok: bool, cells: u64, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed += cells;
            self.failures.push(what());
        }
    }

    /// Checks a fingerprint against its pin, if one applies. Returns
    /// whether a pin was checked.
    pub fn pin(&mut self, pins: &Pins, workload: &str, kind: &str, got: u64, cells: u64) -> bool {
        match pins.get(workload, kind) {
            Some(want) => {
                self.expect(got == want, cells, || {
                    format!("{workload} {kind} fingerprint {got:016x} != pinned {want:016x}")
                });
                true
            }
            None => false,
        }
    }

    #[cfg(test)]
    pub fn has_failure(&self, needle: &str) -> bool {
        self.failures.iter().any(|f| f.contains(needle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_pins_parse() {
        let pins = shipped_pins();
        assert!(pins.get("study", "rows").is_some());
        assert!(pins.get("study", "mem").is_some());
        assert!(pins.get("frontier-cold", "mem").is_some());
    }

    #[test]
    fn perturbed_pin_is_a_failure() {
        let cells = vec![CellResult {
            key: "SSSP/DCT/SGR".to_owned(),
            cycles: 1234,
            fractions: [0.5, 0.1, 0.2, 0.1, 0.1],
            detail: None,
        }];
        let fp = rows_fingerprint(&cells);
        let pins = Pins::parse(&format!("x rows {fp:016x}\n")).unwrap();
        let mut checks = Checks::default();
        assert!(checks.pin(&pins, "x", "rows", fp, 1));
        assert!(checks.failures.is_empty());
        checks.pin(&pins.perturbed("x", "rows"), "x", "rows", fp, 1);
        assert_eq!(checks.failed, 1);
        assert!(checks.has_failure("fingerprint"));
    }
}
