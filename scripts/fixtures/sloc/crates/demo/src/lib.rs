//! Fixture for `scripts/sloc.sh`: three lines of source, then a test
//! module whose raw string ends `}"#;` in column 0. The counter must skip
//! the whole module, not stop at that line.

pub fn one() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    const RAW: &str = r#"{
}"#;

    #[test]
    fn after_the_raw_string() {
        assert_eq!(super::one(), RAW.len() as u32 - 2);
    }
}
