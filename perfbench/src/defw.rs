//! DEF-lite writer: renders a design in the subset `snr_netlist::import`
//! reads, so the `analyze` workload can feed the importer a design as
//! large as its native `.sndr` twin.

use std::fmt::Write as _;

use snr_netlist::Design;

/// Renders `design` as DEF-lite text. Distances are written in database
/// units of one nanometre (`UNITS DISTANCE MICRONS 1000`), so coordinates
/// round-trip exactly; capacitances and margins use Rust's shortest
/// round-trip float formatting.
pub fn write_def(design: &Design) -> String {
    let sinks = design.sinks();
    let mut out = String::with_capacity(64 * (sinks.len() + design.arcs().len()) + 256);
    let die = design.die();
    let root = design.clock_root();
    let _ = writeln!(out, "DESIGN {} ;", design.name());
    let _ = writeln!(out, "UNITS DISTANCE MICRONS 1000 ;");
    let _ = writeln!(out, "FREQUENCY {} ;", design.freq_ghz());
    let _ = writeln!(
        out,
        "DIEAREA ( {} {} ) ( {} {} ) ;",
        die.lo().x,
        die.lo().y,
        die.hi().x,
        die.hi().y
    );
    let _ = writeln!(out, "CLOCKROOT ( {} {} ) ;", root.x, root.y);
    let _ = writeln!(out, "PINS {} ;", sinks.len());
    for s in sinks {
        let p = s.location();
        let _ = writeln!(
            out,
            "  - {} ( {} {} ) CAP {} ;",
            s.name(),
            p.x,
            p.y,
            s.cap_ff()
        );
    }
    let _ = writeln!(out, "END PINS");
    if !design.arcs().is_empty() {
        let _ = writeln!(out, "NETS {} ;", design.arcs().len());
        for (i, a) in design.arcs().iter().enumerate() {
            let _ = writeln!(
                out,
                "  - a{i} ( {} {} ) SETUP {} HOLD {} ;",
                sinks[a.from.0].name(),
                sinks[a.to.0].name(),
                a.setup_margin_ps,
                a.hold_margin_ps
            );
        }
        let _ = writeln!(out, "END NETS");
    }
    let _ = writeln!(out, "END DESIGN");
    out
}

/// The `.sndr` bytes of `design`.
pub fn sndr_bytes(design: &Design) -> Vec<u8> {
    let mut bytes = Vec::new();
    snr_netlist::save_design(design, &mut bytes).expect("writing to memory cannot fail");
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_netlist::{import_design, random_timing_arcs, BenchmarkSpec};

    #[test]
    fn import_of_the_rendering_saves_identical_sndr_bytes() {
        let design = BenchmarkSpec::new("rt", 300)
            .seed(4)
            .freq_ghz(1.25)
            .build()
            .unwrap();
        let arcs = random_timing_arcs(&design, 12, (20.0, 80.0), (10.0, 40.0), 3);
        let design = design.with_arcs(arcs).unwrap();
        assert!(!design.arcs().is_empty());
        let def = write_def(&design);
        let back = import_design(def.as_bytes()).unwrap();
        assert_eq!(sndr_bytes(&back), sndr_bytes(&design));
    }
}
