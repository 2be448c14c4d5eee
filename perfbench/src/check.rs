//! The output checker: what counts as a failed operation.

/// How one attempted operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The result matched its reference byte for byte.
    Ok,
    /// A result arrived but differs from the reference analysis.
    Mismatch,
    /// The service refused the request (429 or 5xx).
    Refused(u16),
    /// The job did not finish before its deadline.
    Timeout,
    /// Anything else: an I/O error, an unexpected answer, a failed job.
    Error(String),
}

/// Compares a result's canonical JSON with the reference made in set-up.
pub fn verify(result: &[u8], reference: &str) -> Outcome {
    if result == reference.as_bytes() {
        Outcome::Ok
    } else {
        Outcome::Mismatch
    }
}

/// Classifies an HTTP status a step did not expect.
pub fn unexpected_status(status: u16) -> Outcome {
    if status == 429 || status >= 500 {
        Outcome::Refused(status)
    } else {
        Outcome::Error(format!("unexpected HTTP {status}"))
    }
}

/// Attempted and failed operations, by kind of failure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Results that differ from their reference.
    pub mismatched: u64,
    /// Requests refused with 429 or 5xx.
    pub refused: u64,
    /// Jobs that missed their deadline.
    pub timed_out: u64,
    /// Every other failure.
    pub errors: u64,
    /// The first failure seen, for the run log.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one operation on `what`.
    pub fn record(&mut self, what: &str, outcome: &Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => return,
            Outcome::Mismatch => self.mismatched += 1,
            Outcome::Refused(_) => self.refused += 1,
            Outcome::Timeout => self.timed_out += 1,
            Outcome::Error(_) => self.errors += 1,
        }
        self.first_failure
            .get_or_insert_with(|| format!("{what}: {outcome:?}"));
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.mismatched += other.mismatched;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
        self.errors += other.errors;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.refused + self.timed_out + self.errors
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed() as f64 / self.attempted as f64
        }
    }
}
