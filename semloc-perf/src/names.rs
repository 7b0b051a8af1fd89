//! Metric names: one alphabet for every emitted name.

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_valid(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Map a simulator label onto the metric alphabet: `/` is dropped
/// (`ghb-g/dc` → `ghb-gdc`) and any other character outside the alphabet
/// becomes `-`.
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .filter(|&c| c != '/')
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}
