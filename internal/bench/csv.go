package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// WriteCSV renders the figure as CSV: one row per x value, one column
// per series, for downstream plotting.
func (f Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, x := range f.xs() {
		row := []string{strconv.FormatFloat(x, 'g', -1, 64)}
		for _, s := range f.Series {
			if y, ok := s.At(x); ok {
				row = append(row, strconv.FormatFloat(y, 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSVs writes every figure to dir as fig<ID>.csv and returns the
// file names written.
func SaveCSVs(figs []Figure, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var names []string
	for _, f := range figs {
		name := filepath.Join(dir, fmt.Sprintf("fig%s.csv", f.ID))
		file, err := os.Create(name)
		if err != nil {
			return names, err
		}
		err = f.WriteCSV(file)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return names, err
		}
		names = append(names, name)
	}
	return names, nil
}
