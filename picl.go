package brisk

import (
	"brisk/internal/picl"
	"brisk/internal/record"
)

// PICLLine renders one record as a PICL ASCII trace line (without the
// trailing newline) — the "supplied code that creates PICL strings" the
// paper provides for consumers reading the manager's memory buffer.
// Timestamps are rendered as integer microseconds of UTC.
func PICLLine(rec *Record) string {
	var fields [record.MaxFields]record.Value
	line, err := picl.AppendLine(nil, rec, &fields)
	if err != nil {
		return ""
	}
	return string(line)
}
