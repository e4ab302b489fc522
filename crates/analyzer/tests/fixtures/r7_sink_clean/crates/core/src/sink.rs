//! R7 fixture (clean): rows are appended from labels escaped once at
//! construction into the reused line buffer — no per-row allocation.

pub struct CsvSink {
    labels: Vec<String>,
    line: String,
}

pub struct JsonlSink {
    labels: Vec<String>,
    line: String,
}

fn push_row(line: &mut String, labels: &[String], patterns: &[u32], at: usize) {
    line.clear();
    line.push_str(&labels[patterns[at] as usize]);
    line.push('\n');
}

impl CsvSink {
    pub fn node(&mut self, patterns: &[u32]) {
        for at in 0..patterns.len() {
            push_row(&mut self.line, &self.labels, patterns, at);
        }
    }
}

impl JsonlSink {
    pub fn node(&mut self, patterns: &[u32]) {
        for at in 0..patterns.len() {
            push_row(&mut self.line, &self.labels, patterns, at);
        }
    }
}
