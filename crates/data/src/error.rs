//! Error type for dataset construction and I/O.

use std::fmt;

/// Errors produced while building, loading, or validating datasets.
#[derive(Debug)]
#[non_exhaustive]
pub enum DataError {
    /// A row had a different number of features than the schema declares.
    ArityMismatch {
        /// Row index (in insertion order) of the offending row.
        row: usize,
        /// Number of values the row supplied.
        got: usize,
        /// Number of features the schema declares.
        expected: usize,
    },
    /// A label was out of range for the declared number of classes.
    LabelOutOfRange {
        /// Row index of the offending row.
        row: usize,
        /// The label supplied.
        label: u16,
        /// Number of classes the schema declares.
        n_classes: usize,
    },
    /// A real-valued feature was NaN or infinite.
    NonFiniteValue {
        /// Row index of the offending value.
        row: usize,
        /// Feature (column) index of the offending value.
        feature: usize,
    },
    /// A boolean column received a value other than 0 or 1.
    NotBoolean {
        /// Row index of the offending value.
        row: usize,
        /// Feature (column) index of the offending value.
        feature: usize,
        /// The offending value.
        value: f64,
    },
    /// The dataset would exceed `u32::MAX` rows.
    TooManyRows,
    /// The schema declares no features or no classes.
    EmptySchema,
    /// A [`crate::DatasetDelta`] referenced a row it cannot legally touch
    /// at the epoch it targets (dead, out of range, or both removed and
    /// flipped within one delta).
    InvalidDelta {
        /// The offending row id.
        row: u32,
        /// What the delta tried to do with it.
        reason: &'static str,
    },
    /// A [`crate::registry::DatasetRegistry`] operation named a handle
    /// that is not loaded.
    UnknownHandle {
        /// The handle the caller asked for.
        handle: String,
    },
    /// A delta chain would leave a registered dataset with no rows, on
    /// which no tree can be trained.
    EmptiedDataset {
        /// The handle the chain targeted.
        handle: String,
    },
    /// A CSV parse failure.
    Csv {
        /// 1-based line number of the failure.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::ArityMismatch { row, got, expected } => {
                write!(f, "row {row} has {got} features, schema expects {expected}")
            }
            DataError::LabelOutOfRange {
                row,
                label,
                n_classes,
            } => {
                write!(
                    f,
                    "row {row} has label {label}, schema declares {n_classes} classes"
                )
            }
            DataError::NonFiniteValue { row, feature } => {
                write!(f, "row {row}, feature {feature}: value is not finite")
            }
            DataError::NotBoolean {
                row,
                feature,
                value,
            } => {
                write!(
                    f,
                    "row {row}, feature {feature}: {value} is not a boolean (0 or 1)"
                )
            }
            DataError::TooManyRows => write!(f, "dataset exceeds u32::MAX rows"),
            DataError::EmptySchema => {
                write!(f, "schema must declare at least one feature and one class")
            }
            DataError::InvalidDelta { row, reason } => {
                write!(f, "invalid delta: row {row}: {reason}")
            }
            DataError::UnknownHandle { handle } => {
                write!(f, "no dataset loaded under handle '{handle}'")
            }
            DataError::EmptiedDataset { handle } => {
                write!(f, "delta would remove every row of '{handle}'")
            }
            DataError::Csv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            DataError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_style() {
        let errs: Vec<DataError> = vec![
            DataError::ArityMismatch {
                row: 3,
                got: 2,
                expected: 4,
            },
            DataError::LabelOutOfRange {
                row: 1,
                label: 9,
                n_classes: 3,
            },
            DataError::NonFiniteValue { row: 0, feature: 2 },
            DataError::NotBoolean {
                row: 0,
                feature: 1,
                value: 0.5,
            },
            DataError::TooManyRows,
            DataError::EmptySchema,
            DataError::Csv {
                line: 7,
                message: "bad field".into(),
            },
            DataError::InvalidDelta {
                row: 4,
                reason: "remove targets a row that is not live",
            },
            DataError::UnknownHandle {
                handle: "prod".into(),
            },
            DataError::EmptiedDataset {
                handle: "prod".into(),
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(
                !s.ends_with('.'),
                "error messages should not end with punctuation: {s}"
            );
        }
    }

    #[test]
    fn io_error_source_is_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = DataError::from(io);
        assert!(std::error::Error::source(&e).is_some());
    }
}
