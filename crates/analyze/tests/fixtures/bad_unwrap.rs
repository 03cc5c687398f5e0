// Fixture: panicking shortcut in a kernel hot path. Linted under the
// virtual path `crates/backends/src/backend_fixture.rs` and under the real
// `backend_planned.rs`, which the hot-path rule matches by the `backend_`
// file-name prefix.

pub fn first_range(ranges: &[std::ops::Range<usize>]) -> std::ops::Range<usize> {
    ranges.first().unwrap().clone()
}
