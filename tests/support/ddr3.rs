//! An independent DDR3 protocol checker for the command stream of a
//! `DramModule`.
//!
//! The module schedules every command at the earliest tick its own
//! reservations allow (`earliest_legal`) and then applies it, so one piece
//! of code both decides and checks legality. This checker shares nothing
//! with it. It reads the `DramCmd` and `OwnershipChange` events the module
//! emits on its tracer, keeps its own per-bank and per-rank history, and
//! asks of every command whether the DDR3 rules, written out below from
//! the `DramTiming` parameters alone, allowed it at that tick.
//!
//! Rules:
//! - bank state: ACT only to a precharged bank, RD/WR only to an open one,
//!   REF and MRS only with every bank of the rank precharged; a PRE to a
//!   precharged bank is a NOP;
//! - per bank: tRCD (ACT→RD/WR), tRAS (ACT→PRE), tRP (PRE→ACT/REF/MRS),
//!   tRC (ACT→ACT), tRTP (RD→PRE), tWR (end of write data→PRE);
//! - per rank: tRRD (ACT→ACT), tFAW (at most four ACTs in any window),
//!   tCCD (CAS→CAS), tWTR (end of write data→RD), tRFC (nothing but NOPs
//!   after a REF), tMOD (MRS→any other command), tMRD (MRS→MRS, 4 clocks);
//! - data buses: bursts never overlap, and a switch of direction or of
//!   rank leaves two clocks of turnaround. The host channel is one bus
//!   for all ranks; each rank's NDP path is a bus of its own;
//! - refresh, when the timing enables it: at most eight REFs postponed,
//!   so REFs at most 9 × tREFI apart (the first within 9 × tREFI of
//!   power-on). A RD, WR or MRS issued past that deadline, or an ACT
//!   after one, is [`Rule::RefreshOverdue`];
//! - MR3/MPR ownership: NDP RD/WR only on a rank the NDP device owns, host
//!   RD/WR never on one. Ownership flips at the `OwnershipChange` event.
//!
//! An MRS that the rank ignored (an injected glitch, or a rank inside an
//! outage) is followed at once by its `FaultInjected` event. It changed
//! nothing, so no rule starts from it. Injected refresh storms are not REF
//! commands and are not traced as such; the checker does not count them.
//! Command-bus slots are not checked: the module does not model
//! command-bus contention.
//!
//! **Known deviation** ([`Rule::IdleRefreshBacklog`]). The module
//! refreshes a rank lazily, when a transaction reaches it. It issues no
//! REF while the rank idles, and after the gap it pays at most two REFs,
//! however many intervals were owed. DDR3 allows at most eight postponed
//! REFs, so a gap longer than 9 × tREFI breaks the rule. The first
//! commands after such a gap may be the device's row-lookahead ACT (and
//! the PRE that closes it again), which `preopen_row` issues before the
//! transaction's catch-up REFs. The checker reports the whole stretch once,
//! at the REF that ends it, under its own rule, and
//! [`Report::assert_legal`] accepts it. A RD, WR or MRS issued while the
//! backlog is owed is [`Rule::RefreshOverdue`] and always fails.

use jafar::common::obs::{Event, EventKind, SharedTracer, TraceSink};
use jafar::common::time::Tick;
use jafar::dram::DramTiming;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// A DDR3 rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// ACT to an open bank, RD/WR to a precharged one, REF or MRS with a
    /// bank open.
    BankState,
    TRcd,
    TRp,
    TRas,
    TRc,
    TRrd,
    TFaw,
    TCcd,
    TWtr,
    TRtp,
    TWr,
    TRfc,
    TMod,
    TMrd,
    /// Two bursts overlap on one data bus, or a direction or rank switch
    /// skipped the turnaround.
    Bus,
    /// A RD, WR or MRS (or an ACT after one) while more than eight REFs
    /// were postponed.
    RefreshOverdue,
    /// More than 9 × tREFI between two REFs of a rank no RD, WR or MRS
    /// drove in the meantime: the known deviation (see the module docs).
    IdleRefreshBacklog,
    /// A data command against the rank's MR3/MPR owner.
    Ownership,
}

/// One broken rule.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: Rule,
    /// Tick of the offending command, in picoseconds.
    pub at: u64,
    pub rank: u32,
    pub bank: u32,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} at {} ps, rank {} bank {}: {}",
            self.rule, self.at, self.rank, self.bank, self.detail
        )
    }
}

/// What one check found.
#[derive(Debug, Default)]
pub struct Report {
    /// Commands checked (ownership changes not counted).
    pub commands: usize,
    /// REF commands among them.
    pub refreshes: usize,
    pub violations: Vec<Violation>,
    /// Per rule, how many commands issued exactly at its bound: evidence
    /// that the rule constrained the stream, so a clean report is not
    /// vacuous.
    pub tight: BTreeMap<Rule, u64>,
}

impl Report {
    /// Violations other than the known idle-refresh deviation.
    pub fn unexpected(&self) -> Vec<&Violation> {
        self.violations
            .iter()
            .filter(|v| v.rule != Rule::IdleRefreshBacklog)
            .collect()
    }

    /// How many violations broke `rule`.
    pub fn count(&self, rule: Rule) -> usize {
        self.violations.iter().filter(|v| v.rule == rule).count()
    }

    /// How many commands issued exactly at `rule`'s bound.
    pub fn tight(&self, rule: Rule) -> u64 {
        self.tight.get(&rule).copied().unwrap_or(0)
    }

    /// Panics, listing the first few, unless every violation is the known
    /// idle-refresh deviation. Also panics on an empty stream.
    pub fn assert_legal(&self) {
        assert!(self.commands > 0, "no DRAM commands were traced");
        let bad = self.unexpected();
        assert!(
            bad.is_empty(),
            "{} DDR3 violations in {} commands, first: {}",
            bad.len(),
            self.commands,
            bad.iter()
                .take(8)
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

/// A trace sink that keeps the events the checker reads, unbounded.
#[derive(Default)]
pub struct Log(pub Vec<Event>);

impl TraceSink for Log {
    fn emit(&mut self, ev: Event) {
        if matches!(
            ev.kind,
            EventKind::DramCmd { .. }
                | EventKind::OwnershipChange { .. }
                | EventKind::FaultInjected { .. }
        ) {
            self.0.push(ev);
        }
    }
}

/// A tracer handle over a fresh [`Log`], and the log.
pub fn recorder() -> (SharedTracer, Rc<RefCell<Log>>) {
    let log = Rc::new(RefCell::new(Log::default()));
    let sink: Rc<RefCell<dyn TraceSink>> = log.clone();
    (SharedTracer::with_sink(sink), log)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Act,
    Rd,
    Wr,
    Pre,
    Prea,
    Ref,
    Mrs,
    /// MR3/MPR ownership became effective: `true` = the NDP device.
    Own(bool),
}

#[derive(Clone, Copy, Debug)]
struct Cmd {
    at: u64,
    op: Op,
    rank: u32,
    bank: u32,
    ndp: bool,
}

/// The commands and ownership changes in `events`, in emission order,
/// without the MRS commands a rank ignored.
fn commands(events: &[Event]) -> Vec<Cmd> {
    let mut out = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let at = ev.at.as_ps();
        match ev.kind {
            EventKind::DramCmd {
                cmd,
                rank,
                bank,
                requester,
            } => {
                let op = match cmd {
                    "ACT" => Op::Act,
                    "RD" => Op::Rd,
                    "WR" => Op::Wr,
                    "PRE" => Op::Pre,
                    "PREA" => Op::Prea,
                    "REF" => Op::Ref,
                    "MRS" => Op::Mrs,
                    other => panic!("unknown DRAM command {other:?}"),
                };
                let ignored = op == Op::Mrs
                    && events.get(i + 1).is_some_and(|next| {
                        next.at == ev.at
                            && matches!(
                                next.kind,
                                EventKind::FaultInjected {
                                    kind: "mrs-glitch" | "outage"
                                }
                            )
                    });
                if !ignored {
                    out.push(Cmd {
                        at,
                        op,
                        rank,
                        bank,
                        ndp: requester == "ndp",
                    });
                }
            }
            EventKind::OwnershipChange { rank, to_ndp } => out.push(Cmd {
                at,
                op: Op::Own(to_ndp),
                rank,
                bank: 0,
                ndp: false,
            }),
            _ => {}
        }
    }
    out
}

/// The timing rules in picoseconds.
struct Rules {
    cl: u64,
    cwl: u64,
    burst: u64,
    rcd: u64,
    rp: u64,
    ras: u64,
    rc: u64,
    ccd: u64,
    rtp: u64,
    wr: u64,
    wtr: u64,
    rrd: u64,
    faw: u64,
    rfc: u64,
    mod_: u64,
    mrd: u64,
    turnaround: u64,
    /// The longest legal gap between two REFs (8 postponed), when
    /// refresh is modelled.
    max_ref_gap: Option<u64>,
}

impl Rules {
    fn new(t: &DramTiming) -> Self {
        let ps = Tick::as_ps;
        let ck = ps(t.bus_clock.period());
        Rules {
            cl: ps(t.cl),
            cwl: ps(t.cwl),
            burst: ps(t.t_burst),
            rcd: ps(t.t_rcd),
            rp: ps(t.t_rp),
            ras: ps(t.t_ras),
            rc: ps(t.t_rc),
            ccd: ps(t.t_ccd),
            rtp: ps(t.t_rtp),
            wr: ps(t.t_wr),
            wtr: ps(t.t_wtr),
            rrd: ps(t.t_rrd),
            faw: ps(t.t_faw),
            rfc: ps(t.t_rfc),
            mod_: ps(t.t_mod),
            // JEDEC DDR3: tMRD = 4 clocks.
            mrd: 4 * ck,
            turnaround: 2 * ck,
            max_ref_gap: t.refresh_enabled.then(|| 9 * ps(t.t_refi)),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct BankHist {
    open: bool,
    /// Last ACT.
    act: Option<u64>,
    /// Last PRE that closed a row.
    pre: Option<u64>,
    /// Last RD since the row opened.
    rd: Option<u64>,
    /// End of the last write burst's data since the row opened.
    wr_end: Option<u64>,
}

#[derive(Debug, Default)]
struct RankHist {
    banks: BTreeMap<u32, BankHist>,
    /// The last four ACTs, oldest first.
    acts: VecDeque<u64>,
    cas: Option<u64>,
    wr_end: Option<u64>,
    refresh: Option<u64>,
    mrs: Option<u64>,
    owned: bool,
    /// Whether a RD, WR or MRS issued past the refresh deadline.
    driven_overdue: bool,
    /// ACT and PRE commands past the deadline, before any RD, WR or MRS.
    catch_up: u32,
}

#[derive(Clone, Copy, Debug)]
struct Burst {
    start: u64,
    end: u64,
    write: bool,
    rank: u32,
}

struct Checker<'a> {
    rules: &'a Rules,
    report: Report,
}

impl Checker<'_> {
    fn flag(&mut self, rule: Rule, c: &Cmd, detail: String) {
        self.report.violations.push(Violation {
            rule,
            at: c.at,
            rank: c.rank,
            bank: c.bank,
            detail,
        });
    }

    /// `c` may not issue before `earliest` (if any) under `rule`.
    fn need(&mut self, rule: Rule, c: &Cmd, earliest: Option<u64>) {
        let Some(earliest) = earliest else { return };
        if c.at < earliest {
            self.flag(
                rule,
                c,
                format!(
                    "{:?} {} ps before its bound {earliest}",
                    c.op,
                    earliest - c.at
                ),
            );
        } else if c.at == earliest {
            *self.report.tight.entry(rule).or_default() += 1;
        }
    }

    fn rank(&mut self, r: &mut RankHist, c: &Cmd, bursts: &mut BTreeMap<Option<u32>, Vec<Burst>>) {
        let t = self.rules;
        if let Op::Own(to_ndp) = c.op {
            r.owned = to_ndp;
            return;
        }
        self.report.commands += 1;
        self.need(Rule::TRfc, c, r.refresh.map(|at| at + t.rfc));
        if c.op == Op::Mrs {
            self.need(Rule::TMrd, c, r.mrs.map(|at| at + t.mrd));
        } else {
            self.need(Rule::TMod, c, r.mrs.map(|at| at + t.mod_));
        }
        if let Some(gap) = t.max_ref_gap {
            self.refresh_window(r, c, gap);
        }
        match c.op {
            Op::Act => {
                let b = r.banks.get(&c.bank).copied().unwrap_or_default();
                if b.open {
                    self.flag(Rule::BankState, c, "ACT to an open bank".into());
                }
                self.need(Rule::TRp, c, b.pre.map(|at| at + t.rp));
                self.need(Rule::TRc, c, b.act.map(|at| at + t.rc));
                self.need(Rule::TRrd, c, r.acts.back().map(|at| at + t.rrd));
                let fourth_back = (r.acts.len() == 4).then(|| r.acts[0] + t.faw);
                self.need(Rule::TFaw, c, fourth_back);
                if r.acts.len() == 4 {
                    r.acts.pop_front();
                }
                r.acts.push_back(c.at);
                r.banks.insert(
                    c.bank,
                    BankHist {
                        open: true,
                        act: Some(c.at),
                        pre: b.pre,
                        rd: None,
                        wr_end: None,
                    },
                );
            }
            Op::Rd | Op::Wr => {
                let write = c.op == Op::Wr;
                let b = r.banks.get(&c.bank).copied().unwrap_or_default();
                if !b.open {
                    self.flag(
                        Rule::BankState,
                        c,
                        format!("{:?} to a precharged bank", c.op),
                    );
                }
                self.need(Rule::TRcd, c, b.act.map(|at| at + t.rcd));
                self.need(Rule::TCcd, c, r.cas.map(|at| at + t.ccd));
                if !write {
                    self.need(Rule::TWtr, c, r.wr_end.map(|end| end + t.wtr));
                }
                if c.ndp != r.owned {
                    let who = if c.ndp { "NDP" } else { "host" };
                    let owner = if r.owned { "NDP" } else { "host" };
                    self.flag(
                        Rule::Ownership,
                        c,
                        format!("{who} {:?} on a rank the {owner} owns", c.op),
                    );
                }
                let lead = if write { t.cwl } else { t.cl };
                let start = c.at + lead;
                let end = start + t.burst;
                bursts
                    .entry(c.ndp.then_some(c.rank))
                    .or_default()
                    .push(Burst {
                        start,
                        end,
                        write,
                        rank: c.rank,
                    });
                r.cas = Some(c.at);
                let bank = r.banks.entry(c.bank).or_default();
                if write {
                    bank.wr_end = Some(end);
                    r.wr_end = Some(r.wr_end.map_or(end, |e| e.max(end)));
                } else {
                    bank.rd = Some(c.at);
                }
            }
            Op::Pre | Op::Prea => {
                let banks: Vec<u32> = if c.op == Op::Pre {
                    vec![c.bank]
                } else {
                    r.banks.keys().copied().collect()
                };
                for bank in banks {
                    let b = r.banks.get(&bank).copied().unwrap_or_default();
                    if !b.open {
                        continue; // a NOP
                    }
                    let at_bank = Cmd { bank, ..*c };
                    self.need(Rule::TRas, &at_bank, b.act.map(|at| at + t.ras));
                    self.need(Rule::TRtp, &at_bank, b.rd.map(|at| at + t.rtp));
                    self.need(Rule::TWr, &at_bank, b.wr_end.map(|end| end + t.wr));
                    r.banks.insert(
                        bank,
                        BankHist {
                            open: false,
                            pre: Some(c.at),
                            rd: None,
                            wr_end: None,
                            ..b
                        },
                    );
                }
            }
            Op::Ref | Op::Mrs => {
                let banks: Vec<(u32, BankHist)> =
                    r.banks.iter().map(|(&bank, &b)| (bank, b)).collect();
                for (bank, b) in banks {
                    let at_bank = Cmd { bank, ..*c };
                    if b.open {
                        self.flag(
                            Rule::BankState,
                            &at_bank,
                            format!("{:?} with the bank open", c.op),
                        );
                    }
                    self.need(Rule::TRp, &at_bank, b.pre.map(|at| at + t.rp));
                }
                if c.op == Op::Ref {
                    self.report.refreshes += 1;
                    r.refresh = Some(c.at);
                    r.driven_overdue = false;
                    r.catch_up = 0;
                } else {
                    r.mrs = Some(c.at);
                }
            }
            Op::Own(_) => unreachable!("handled above"),
        }
    }

    /// The refresh rule for `c`, with REFs at most `gap` apart. Past the
    /// deadline, a RD, WR or MRS drives an overdue rank. ACT and PRE
    /// before any of those are the idle catch-up: the device's row
    /// lookahead opens the next row before the transaction's REFs. The
    /// REF that ends such a stretch is the known deviation.
    fn refresh_window(&mut self, r: &mut RankHist, c: &Cmd, gap: u64) {
        let last = r.refresh.unwrap_or(0);
        let deadline = last + gap;
        if c.at <= deadline {
            return;
        }
        match c.op {
            Op::Rd | Op::Wr | Op::Mrs => r.driven_overdue = true,
            Op::Act if r.driven_overdue => {}
            Op::Pre | Op::Prea if r.driven_overdue => return,
            Op::Act | Op::Pre | Op::Prea => {
                r.catch_up += 1;
                return;
            }
            Op::Ref if !r.driven_overdue => {
                self.flag(
                    Rule::IdleRefreshBacklog,
                    c,
                    format!(
                        "no REF for {} ps ({gap} allowed), {} ACT/PRE before the catch-up",
                        c.at - last,
                        r.catch_up
                    ),
                );
                return;
            }
            Op::Ref | Op::Own(_) => return,
        }
        self.flag(
            Rule::RefreshOverdue,
            c,
            format!(
                "{:?} {} ps past the refresh deadline {deadline}",
                c.op,
                c.at - deadline
            ),
        );
    }

    fn bus(&mut self, bus: Option<u32>, mut bursts: Vec<Burst>) {
        bursts.sort_by_key(|b| b.start);
        for pair in bursts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let gap = if a.write != b.write || a.rank != b.rank {
                self.rules.turnaround
            } else {
                0
            };
            let c = Cmd {
                at: b.start,
                op: if b.write { Op::Wr } else { Op::Rd },
                rank: b.rank,
                bank: 0,
                ndp: bus.is_some(),
            };
            self.need(Rule::Bus, &c, Some(a.end + gap));
        }
    }
}

/// Checks the DRAM command stream in `events` (one module's, in emission
/// order) against the DDR3 rules for `timing`. Each rank's commands are
/// sorted by tick first: the module emits commands in the order it
/// schedules them, which need not be the order they issue in.
pub fn check(events: &[Event], timing: &DramTiming) -> Report {
    let rules = Rules::new(timing);
    let mut per_rank: BTreeMap<u32, Vec<Cmd>> = BTreeMap::new();
    for c in commands(events) {
        per_rank.entry(c.rank).or_default().push(c);
    }
    let mut checker = Checker {
        rules: &rules,
        report: Report::default(),
    };
    let mut bursts = BTreeMap::new();
    for cmds in per_rank.values_mut() {
        // Stable: equal ticks keep their emission order, so an ownership
        // change stays ahead of the commands that relied on it.
        cmds.sort_by_key(|c| c.at);
        let mut hist = RankHist::default();
        for c in cmds.iter() {
            checker.rank(&mut hist, c, &mut bursts);
        }
        if hist.catch_up > 0 {
            let last = cmds.last().expect("a rank with commands");
            checker.flag(
                Rule::RefreshOverdue,
                last,
                format!(
                    "{} ACT/PRE past the refresh deadline, and no REF",
                    hist.catch_up
                ),
            );
        }
    }
    for (bus, list) in bursts {
        checker.bus(bus, list);
    }
    checker.report
}
