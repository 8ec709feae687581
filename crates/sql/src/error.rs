//! Error type of the SQL layer.

use std::fmt;

/// Errors produced while lexing, parsing, planning or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical error at a byte offset.
    Lex {
        /// What went wrong.
        reason: String,
        /// Byte offset in the input.
        offset: usize,
    },
    /// Parse error at a byte offset.
    Parse {
        /// What went wrong.
        reason: String,
        /// Byte offset in the input.
        offset: usize,
    },
    /// The statement is valid SQL but not supported / not plannable.
    Plan(String),
    /// Runtime evaluation failure.
    Exec(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { reason, offset } => write!(f, "lex error at byte {offset}: {reason}"),
            SqlError::Parse { reason, offset } => {
                write!(f, "parse error at byte {offset}: {reason}")
            }
            SqlError::Plan(msg) => write!(f, "planning error: {msg}"),
            SqlError::Exec(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Engine errors surface as execution errors.
impl From<lidardb_core::CoreError> for SqlError {
    fn from(e: lidardb_core::CoreError) -> Self {
        SqlError::Exec(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = SqlError::Parse {
            reason: "expected FROM".into(),
            offset: 12,
        };
        assert!(e.to_string().contains("byte 12"));
        assert!(SqlError::Plan("three tables".into())
            .to_string()
            .contains("three tables"));
    }
}
