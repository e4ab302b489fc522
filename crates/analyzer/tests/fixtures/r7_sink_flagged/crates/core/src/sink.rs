//! R7 fixture (flagged): the writer sinks' per-row path renders each
//! pattern into a fresh `String` — one transient allocation per row.

pub struct CsvSink {
    line: String,
}

pub struct JsonlSink {
    line: String,
}

impl CsvSink {
    pub fn node(&mut self, patterns: &[u32]) {
        for p in patterns {
            self.line.clear();
            let text = p.to_string();
            self.line.push_str(&text);
        }
    }
}

impl JsonlSink {
    pub fn node(&mut self, patterns: &[u32]) {
        for p in patterns {
            self.line.clear();
            self.line.push_str(&format!("{{\"pattern\":{p}}}"));
        }
    }
}
