//! The seeded request stream of the `serve` workload and the closed-loop
//! gate that decides when the next request may be sent.
//!
//! The design pool and parameter grids are fixed, so every request the
//! stream can produce has a pinned result digest; `--seed` only changes
//! which requests are drawn and in what order. The same seed always
//! yields the same sequence.

/// A small, fast, seedable generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Sinks and generator seed of each `run` design (400–1,600 sinks).
pub const RUN_DESIGNS: [(usize, u64); 6] = [
    (400, 101),
    (640, 102),
    (880, 103),
    (1120, 104),
    (1360, 105),
    (1600, 106),
];
/// Slew margins a `run` request may carry.
pub const SLEW_MARGINS: [f64; 6] = [1.05, 1.07, 1.09, 1.11, 1.13, 1.15];
/// Number of skew budgets a `run` request may carry (see [`skew_budget`]).
pub const SKEW_BUDGETS: usize = 60;

/// The `b`-th skew budget, ps: 15.0, 15.8, ... 62.2.
pub fn skew_budget(b: usize) -> f64 {
    (150 + 8 * b) as f64 / 10.0
}

/// Sinks and seed of each `pareto` design.
pub const PARETO_DESIGNS: [(usize, u64); 2] = [(400, 201), (400, 202)];
/// Skew-budget axes a `pareto` request may sweep (the first is the
/// default sweep's; the others share some of its points).
pub const PARETO_SKEWS: [&str; 3] = ["[10, 30, 60]", "[10, 30]", "[20, 40]"];
/// Sinks and seed of each DEF-lite design `import` requests read.
pub const IMPORT_DESIGNS: [(usize, u64); 3] = [(2000, 301), (3000, 302), (4000, 303)];
/// How many of the smallest `run` designs `export_ndr` requests use.
pub const EXPORT_DESIGNS: usize = 3;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The full flow on one design.
    Run,
    /// A constraint-space sweep.
    Pareto,
    /// Validation of a `.sndr` design.
    Lint,
    /// Import of a DEF-lite design.
    Import,
    /// Tcl export of a solved assignment.
    ExportNdr,
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// What it does.
    pub kind: Kind,
    /// Its protocol line, minus the `id` field (added when sent).
    pub body: String,
    /// The key its pinned result digest is filed under. Two requests
    /// with equal keys have equal results.
    pub key: String,
    /// The design file the request reads (and whose warm parse+CTS
    /// entry and stored results it may touch).
    pub design: usize,
    /// That file's path.
    pub path: String,
    /// Sinks in the request's design.
    pub sinks: usize,
}

/// Where the stream's design files live, relative to the daemon's
/// working directory.
#[derive(Debug, Clone)]
pub struct Paths {
    /// Directory holding `r<i>.sndr`, `p<i>.sndr` and `i<i>.def`.
    pub dir: String,
}

impl Paths {
    fn run(&self, i: usize) -> String {
        format!("{}/r{i}.sndr", self.dir)
    }
    fn pareto(&self, i: usize) -> String {
        format!("{}/p{i}.sndr", self.dir)
    }
    fn import(&self, i: usize) -> String {
        format!("{}/i{i}.def", self.dir)
    }
}

impl Req {
    /// A request of `kind` (protocol op `op`) on the design file `path`,
    /// with `extra` protocol fields appended.
    fn new(
        kind: Kind,
        op: &str,
        path: String,
        extra: String,
        key: String,
        design: usize,
        sinks: usize,
    ) -> Req {
        Req {
            kind,
            body: format!("\"op\": \"{op}\", \"design\": {{\"path\": \"{path}\"}}{extra}"),
            key,
            design,
            path,
            sinks,
        }
    }
}

/// The `run` request for design `d` with grid point `(m, b)`.
pub fn run_req(paths: &Paths, d: usize, m: usize, b: usize) -> Req {
    let (margin, budget) = (SLEW_MARGINS[m], skew_budget(b));
    Req::new(
        Kind::Run,
        "run",
        paths.run(d),
        format!(", \"slew_margin\": {margin}, \"skew_budget\": {budget}"),
        format!("run r{d} m{margin} b{budget}"),
        d,
        RUN_DESIGNS[d].0,
    )
}

/// The `pareto` request for pareto design `d`.
pub fn pareto_req(paths: &Paths, d: usize, skews: usize, corners: bool) -> Req {
    Req::new(
        Kind::Pareto,
        "pareto",
        paths.pareto(d),
        format!(
            ", \"skew_budgets\": {}, \"corners\": {corners}",
            PARETO_SKEWS[skews]
        ),
        format!("pareto p{d} s{skews} c{}", u8::from(corners)),
        RUN_DESIGNS.len() + d,
        PARETO_DESIGNS[d].0,
    )
}

/// The `lint` request for run design `d`.
pub fn lint_req(paths: &Paths, d: usize) -> Req {
    let key = format!("lint r{d}");
    Req::new(
        Kind::Lint,
        "lint",
        paths.run(d),
        String::new(),
        key,
        d,
        RUN_DESIGNS[d].0,
    )
}

/// The `import` request for DEF-lite design `d`.
pub fn import_req(paths: &Paths, d: usize) -> Req {
    let design = RUN_DESIGNS.len() + PARETO_DESIGNS.len() + d;
    let key = format!("import i{d}");
    Req::new(
        Kind::Import,
        "import",
        paths.import(d),
        String::new(),
        key,
        design,
        IMPORT_DESIGNS[d].0,
    )
}

/// The `export_ndr` request for run design `d`.
pub fn export_req(paths: &Paths, d: usize) -> Req {
    let key = format!("export_ndr r{d}");
    Req::new(
        Kind::ExportNdr,
        "export_ndr",
        paths.run(d),
        String::new(),
        key,
        d,
        RUN_DESIGNS[d].0,
    )
}

/// Every `(design, margin, budget)` point of the `run` grid.
fn run_grid() -> Vec<(usize, usize, usize)> {
    let mut grid = Vec::new();
    for d in 0..RUN_DESIGNS.len() {
        for m in 0..SLEW_MARGINS.len() {
            for b in 0..SKEW_BUDGETS {
                grid.push((d, m, b));
            }
        }
    }
    grid
}

/// Every request the stream can produce, once each.
pub fn universe(paths: &Paths) -> Vec<Req> {
    let mut all = Vec::new();
    all.extend(
        run_grid()
            .into_iter()
            .map(|(d, m, b)| run_req(paths, d, m, b)),
    );
    for d in 0..PARETO_DESIGNS.len() {
        for s in 0..PARETO_SKEWS.len() {
            for c in [false, true] {
                all.push(pareto_req(paths, d, s, c));
            }
        }
    }
    all.extend((0..RUN_DESIGNS.len()).map(|d| lint_req(paths, d)));
    all.extend((0..IMPORT_DESIGNS.len()).map(|d| import_req(paths, d)));
    all.extend((0..EXPORT_DESIGNS).map(|d| export_req(paths, d)));
    all
}

/// One slot of a [`BLOCK`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A `run` on a key never issued before (computed, then stored).
    FreshRun,
    /// A `run` on a key already issued (a store replay).
    RepeatRun,
    /// Any other request kind.
    Other(Kind),
}

/// The request classes of every 20 consecutive requests: 11 `run` (4 on
/// fresh keys, 7 store replays), 2 `pareto`, 4 `lint`, 1 `import` and 2
/// `export_ndr`. Fixing the counts per block (only their order is seeded)
/// keeps the class shares, and so the latency mixture, the same from run
/// to run. The shares also place the latency median inside the `lint`
/// band (replays and replayed sweeps are the fastest 45%), where parsing
/// and validation, not wake-up jitter, set the time.
const BLOCK: [Slot; 20] = [
    Slot::FreshRun,
    Slot::FreshRun,
    Slot::FreshRun,
    Slot::FreshRun,
    Slot::RepeatRun,
    Slot::RepeatRun,
    Slot::RepeatRun,
    Slot::RepeatRun,
    Slot::RepeatRun,
    Slot::RepeatRun,
    Slot::RepeatRun,
    Slot::Other(Kind::Pareto),
    Slot::Other(Kind::Pareto),
    Slot::Other(Kind::Lint),
    Slot::Other(Kind::Lint),
    Slot::Other(Kind::Lint),
    Slot::Other(Kind::Lint),
    Slot::Other(Kind::Import),
    Slot::Other(Kind::ExportNdr),
    Slot::Other(Kind::ExportNdr),
];

/// Skew-budget strata of the fresh-key order: bands of consecutive budgets.
const BUDGET_STRATA: usize = SLEW_MARGINS.len();

/// One run design's fresh `(margin, budget)` points, last to issue first.
///
/// A run's cost depends mostly on its budget and margin, so a plain
/// shuffle would give each run of the benchmark a different mix of cheap
/// and costly cold runs, and the latency tail, which holds them, would
/// move with the seed. Instead the grid is issued in rounds of six: each
/// round takes one budget from every budget stratum and pairs the strata
/// with six distinct margins. Over six passes every budget meets every
/// margin once, so all 360 points are issued; the seed picks the budgets,
/// their order and the stratum-to-margin pairing.
fn fresh_order(rng: &mut Rng) -> Vec<(usize, usize)> {
    let width = SKEW_BUDGETS / BUDGET_STRATA;
    let mut margins: Vec<usize> = (0..SLEW_MARGINS.len()).collect();
    rng.shuffle(&mut margins);
    let mut order = Vec::with_capacity(SLEW_MARGINS.len() * SKEW_BUDGETS);
    for pass in 0..SLEW_MARGINS.len() {
        let mut strata: Vec<Vec<usize>> = (0..BUDGET_STRATA)
            .map(|s| {
                let mut band: Vec<usize> = (s * width..(s + 1) * width).collect();
                rng.shuffle(&mut band);
                band
            })
            .collect();
        for _ in 0..width {
            let mut round: Vec<(usize, usize)> = strata
                .iter_mut()
                .enumerate()
                .filter_map(|(s, band)| Some((margins[(s + pass) % margins.len()], band.pop()?)))
                .collect();
            rng.shuffle(&mut round);
            order.extend(round);
        }
    }
    order.reverse();
    order
}

/// The seeded request stream, block by block (see [`BLOCK`]). Designs
/// rotate within each class from a seeded starting point, so every run
/// sees the same mix of design sizes; the seed picks the order inside
/// each block, the fresh run keys (each design's margin × budget grid in
/// the balanced order of [`fresh_order`]), which issued key a replay
/// repeats, and the pareto axes.
pub struct Mix {
    rng: Rng,
    paths: Paths,
    block: Vec<Slot>,
    /// Per run design, its not yet issued `(margin, budget)` points.
    fresh: Vec<Vec<(usize, usize)>>,
    /// Distinct run keys issued so far.
    issued: Vec<(usize, usize, usize)>,
    /// Per class, how many requests it has produced (plus a seeded offset).
    turns: [usize; 5],
}

impl Mix {
    /// The stream for `seed`.
    pub fn new(seed: u64, paths: Paths) -> Self {
        let mut rng = Rng::new(seed);
        let fresh = (0..RUN_DESIGNS.len())
            .map(|_| fresh_order(&mut rng))
            .collect();
        let turns = std::array::from_fn(|_| rng.below(1 << 16));
        Mix {
            rng,
            paths,
            block: Vec::new(),
            fresh,
            issued: Vec::new(),
            turns,
        }
    }

    fn turn(&mut self, class: usize, n: usize) -> usize {
        self.turns[class] += 1;
        self.turns[class] % n
    }

    /// A fresh run key, rotating over designs; `None` once the grid is
    /// used up.
    fn fresh_run(&mut self) -> Option<(usize, usize, usize)> {
        let d = self.turn(0, RUN_DESIGNS.len());
        let (m, b) = self.fresh[d].pop()?;
        self.issued.push((d, m, b));
        Some((d, m, b))
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        let slot = self.block.pop().unwrap_or(Slot::RepeatRun);
        let p = self.paths.clone();
        match slot {
            Slot::FreshRun | Slot::RepeatRun => {
                let fresh = if slot == Slot::FreshRun || self.issued.is_empty() {
                    self.fresh_run()
                } else {
                    None
                };
                // Uniform over distinct issued keys, so early draws are not
                // amplified by their own repeats.
                let (d, m, b) =
                    fresh.unwrap_or_else(|| self.issued[self.rng.below(self.issued.len())]);
                run_req(&p, d, m, b)
            }
            Slot::Other(Kind::Pareto) => {
                let d = self.turn(1, PARETO_DESIGNS.len());
                let s = self.rng.below(PARETO_SKEWS.len());
                pareto_req(&p, d, s, self.rng.below(2) == 1)
            }
            Slot::Other(Kind::Lint) => lint_req(&p, self.turn(2, RUN_DESIGNS.len())),
            Slot::Other(Kind::Import) => import_req(&p, self.turn(3, IMPORT_DESIGNS.len())),
            Slot::Other(_) => export_req(&p, self.turn(4, EXPORT_DESIGNS)),
        }
    }
}

/// The closed-loop admission rule: at most `cap` requests in flight, and
/// never two that read the same design. Sharing a design is necessary
/// for sharing a result key, so this also keeps two requests with one
/// key out of flight together: each one sees every earlier request with
/// its key completed, which makes warm-cache and store hit/miss counts a
/// pure function of the sequence.
#[derive(Debug)]
pub struct Gate {
    cap: usize,
    in_flight: Vec<(u64, usize)>,
}

impl Gate {
    /// A gate admitting at most `cap` requests at once.
    pub fn new(cap: usize) -> Self {
        Gate {
            cap: cap.max(1),
            in_flight: Vec::new(),
        }
    }

    /// Whether `req` may be sent now.
    pub fn admits(&self, req: &Req) -> bool {
        self.in_flight.len() < self.cap && self.in_flight.iter().all(|&(_, d)| d != req.design)
    }

    /// Marks request `id` as sent.
    pub fn enter(&mut self, id: u64, req: &Req) {
        debug_assert!(self.admits(req));
        self.in_flight.push((id, req.design));
    }

    /// Marks request `id` as answered.
    pub fn leave(&mut self, id: u64) {
        self.in_flight.retain(|(i, _)| *i != id);
    }

    /// Requests currently in flight.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn paths() -> Paths {
        Paths {
            dir: "w".to_owned(),
        }
    }

    fn stream(seed: u64, n: usize) -> Vec<Req> {
        let mut mix = Mix::new(seed, paths());
        (0..n).map(|_| mix.next_req()).collect()
    }

    #[test]
    fn same_seed_same_sequence() {
        assert_eq!(stream(7, 500), stream(7, 500));
        assert_ne!(stream(7, 500), stream(8, 500));
    }

    #[test]
    fn stream_stays_inside_the_pinned_universe_with_the_stated_mix() {
        let all: HashMap<String, Req> = universe(&paths())
            .into_iter()
            .map(|r| (r.key.clone(), r))
            .collect();
        let reqs = stream(3, 20_000);
        for r in &reqs {
            assert_eq!(all.get(&r.key), Some(r), "{} not in the universe", r.key);
        }
        for block in reqs.chunks(BLOCK.len()) {
            let count = |k: Kind| block.iter().filter(|r| r.kind == k).count();
            assert_eq!(count(Kind::Run), 11);
            assert_eq!(count(Kind::Pareto), 2);
            assert_eq!(count(Kind::Lint), 4);
            assert_eq!(count(Kind::Import), 1);
            assert_eq!(count(Kind::ExportNdr), 2);
        }
        // Four in eleven runs are on fresh keys, in the first thousand runs
        // as in the second, and fresh keys rotate over the designs.
        let runs: Vec<&Req> = reqs
            .iter()
            .filter(|r| r.kind == Kind::Run)
            .take(2000)
            .collect();
        let mut seen = std::collections::HashSet::new();
        let fresh: Vec<&Req> = runs
            .iter()
            .copied()
            .filter(|r| seen.insert(r.key.clone()))
            .collect();
        let first_half = fresh.iter().filter(|r| runs[..1000].contains(r)).count();
        let share = 4.0 / 11.0;
        assert!(
            (first_half as f64 / 1000.0 - share).abs() < 0.01,
            "{first_half}"
        );
        assert!(
            (fresh.len() as f64 / 2000.0 - share).abs() < 0.01,
            "{}",
            fresh.len()
        );
        for d in 0..RUN_DESIGNS.len() {
            let n = fresh.iter().filter(|r| r.design == d).count();
            assert!(
                n.abs_diff(fresh.len() / RUN_DESIGNS.len()) <= 1,
                "design {d}: {n}"
            );
        }
    }

    #[test]
    fn keys_are_unique_and_name_their_design_file() {
        let mut by_key: HashMap<String, usize> = HashMap::new();
        let mut file_of: HashMap<usize, String> = HashMap::new();
        for r in universe(&paths()) {
            assert!(
                by_key.insert(r.key.clone(), r.design).is_none(),
                "duplicate {}",
                r.key
            );
            let known = file_of.entry(r.design).or_insert_with(|| r.path.clone());
            assert_eq!(*known, r.path, "design {} names two files", r.design);
            assert!(r.body.contains(&format!("\"path\": \"{}\"", r.path)));
        }
    }

    #[test]
    fn fresh_keys_cover_the_grid_in_balanced_rounds() {
        for seed in 0..10 {
            let mut order = fresh_order(&mut Rng::new(seed));
            order.reverse();
            let mut all = order.clone();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), SLEW_MARGINS.len() * SKEW_BUDGETS);
            assert_eq!(order.len(), all.len());
            let width = SKEW_BUDGETS / BUDGET_STRATA;
            for round in order.chunks(BUDGET_STRATA) {
                let mut strata: Vec<usize> = round.iter().map(|&(_, b)| b / width).collect();
                let mut margins: Vec<usize> = round.iter().map(|&(m, _)| m).collect();
                strata.sort_unstable();
                margins.sort_unstable();
                assert_eq!(strata, (0..BUDGET_STRATA).collect::<Vec<_>>());
                assert_eq!(margins, (0..SLEW_MARGINS.len()).collect::<Vec<_>>());
            }
        }
        assert_ne!(fresh_order(&mut Rng::new(1)), fresh_order(&mut Rng::new(2)));
    }

    /// Drives the gate the way the client does, completing a random
    /// in-flight request at each step, and checks the cap and that no two
    /// requests with one key (or one design) are ever in flight together.
    #[test]
    fn gate_caps_in_flight_and_never_overlaps_a_key() {
        for seed in 0..20 {
            let mut mix = Mix::new(seed, paths());
            let mut done = Rng::new(seed + 1000);
            let mut gate = Gate::new(2);
            let mut flying: Vec<(u64, Req)> = Vec::new();
            let mut next = mix.next_req();
            let mut max_seen = 0;
            for id in 0..3000u64 {
                while !gate.admits(&next) {
                    let (gone, _) = flying.remove(done.below(flying.len()));
                    gate.leave(gone);
                }
                for (_, other) in &flying {
                    assert_ne!(other.key, next.key);
                    assert_ne!(other.design, next.design);
                }
                gate.enter(id, &next);
                flying.push((id, next));
                max_seen = max_seen.max(gate.len());
                assert!(gate.len() <= 2);
                next = mix.next_req();
            }
            assert_eq!(max_seen, 2);
        }
    }
}
