//! The determinism guard: every deterministic quantity a workload reports
//! must come out identical each time the same input and variant run.

use std::collections::BTreeMap;

/// First fingerprint seen per `(input, variant)`; later ones must equal it.
#[derive(Default)]
pub struct Guard(BTreeMap<(usize, &'static str), Vec<u64>>);

impl Guard {
    /// Records `fp` for `(input, variant)`, or compares it with the first
    /// one recorded there.
    pub fn check(
        &mut self,
        input: usize,
        variant: &'static str,
        fp: Vec<u64>,
    ) -> Result<(), String> {
        match self.0.get(&(input, variant)) {
            Some(first) if *first != fp => Err(format!(
                "{variant} run on input {input} is not deterministic: counts {fp:?} vs first {first:?}"
            )),
            Some(_) => Ok(()),
            None => {
                self.0.insert((input, variant), fp);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_a_changed_fingerprint_per_input_and_variant() {
        let mut g = Guard::default();
        assert!(g.check(0, "op", vec![1, 2]).is_ok());
        assert!(g.check(0, "op", vec![1, 2]).is_ok());
        assert!(g.check(1, "op", vec![3]).is_ok());
        assert!(g.check(0, "baseline", vec![9]).is_ok());
        assert!(g.check(0, "op", vec![1, 3]).is_err());
    }
}
