//! The telemetry reports committed at the workspace root must stay
//! readable by the current schema: each one parses, passes the
//! validator, and re-emits byte for byte. A schema change that forgets
//! to regenerate them (or a hand-edited report) fails here.

use stencil_telemetry::{validate_report, MetricsReport};

const REPORTS: [(&str, &str); 3] = [
    ("BENCH_2.json", include_str!("../../../BENCH_2.json")),
    ("BENCH_3.json", include_str!("../../../BENCH_3.json")),
    ("BENCH_8.json", include_str!("../../../BENCH_8.json")),
];

#[test]
fn committed_reports_parse_validate_and_re_emit_identically() {
    for (name, text) in REPORTS {
        let report = MetricsReport::parse(text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let violations = validate_report(&report);
        assert!(violations.is_empty(), "{name}: {violations:?}");
        assert!(
            report.to_json() == text,
            "{name} does not re-emit byte for byte"
        );
    }
}
