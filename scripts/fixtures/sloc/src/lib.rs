//! Second fixture file: the skip state starts afresh in every file.

#[cfg(test)]
mod tests {
    #[test]
    fn skipped() {}
}

pub fn two() -> u32 {
    2
}
