package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Sink consumes sweep records. Run writes to no sink: the caller writes
// r.Record(sw.Name) for each result Run yields, in the order they come,
// and treats a sink error as fatal — silently dropping results would
// defeat the point of streaming them.
type Sink interface {
	Write(*Record) error
}

// JSONLSink writes one JSON Record per line — the streaming counterpart
// of the result store, readable back with ReadRecords.
type JSONLSink struct {
	enc *json.Encoder
}

// NewJSONLSink wraps w as a JSON-lines sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Write emits one record as a JSON line.
func (s *JSONLSink) Write(rec *Record) error {
	return s.enc.Encode(rec)
}

// CSVSink writes results as CSV rows: the fixed result columns plus one
// column per named axis (filled with the point's value labels). Rows come
// in the order they are written, which for Run's results is completion
// order, not grid order; the index column gives each row's grid point. Rows
// are flushed as they are written, so a killed sweep leaves every completed
// row on disk.
type CSVSink struct {
	w           *csv.Writer
	axes        []string
	wroteHeader bool
}

// NewCSVSink wraps w as a CSV sink with one extra column per axis name.
func NewCSVSink(w io.Writer, axes ...string) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w), axes: axes}
}

// Write emits one record as a CSV row (preceded by the header row on
// first use).
func (s *CSVSink) Write(rec *Record) error {
	if !s.wroteHeader {
		header := append([]string{"index", "name", "fingerprint", "cached"}, s.axes...)
		header = append(header, "simulated_time", "actions", "wall_seconds", "error")
		if err := s.w.Write(header); err != nil {
			return fmt.Errorf("sweep: csv sink: %w", err)
		}
		s.wroteHeader = true
	}
	row := []string{
		strconv.Itoa(rec.Index),
		rec.Name,
		rec.Fingerprint,
		strconv.FormatBool(rec.Cached),
	}
	for _, a := range s.axes {
		row = append(row, rec.Labels[a])
	}
	if rec.Replay != nil {
		row = append(row,
			strconv.FormatFloat(rec.Replay.SimulatedTime, 'g', -1, 64),
			strconv.FormatInt(rec.Replay.Actions, 10),
			strconv.FormatFloat(rec.Replay.Wall.Seconds(), 'g', -1, 64))
	} else {
		row = append(row, "", "", "")
	}
	row = append(row, rec.Err)
	if err := s.w.Write(row); err != nil {
		return fmt.Errorf("sweep: csv sink: %w", err)
	}
	s.w.Flush()
	if err := s.w.Error(); err != nil {
		return fmt.Errorf("sweep: csv sink: %w", err)
	}
	return nil
}
