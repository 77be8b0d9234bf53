// dsosql is the command-line query interface to stored connector data
// (the DSOS CLI of the paper): it loads a container snapshot written by
// dsosd and runs index queries, printing CSV rows. A snapshot query and a
// live dsosd's /query share the store cursor, the job/rank bound rule
// (dsos.DarshanBounds) and the row renderer (dsos.AppendCSVRow), so both
// print the same bytes for the same rows.
//
// Usage:
//
//	dsosql -snapshot darshan_data.sos [-index job_rank_time]
//	       [-job N] [-rank N] [-limit N] [-schemas] [-indices]
//	dsosql -connect http://dsosd-host:4421 -job 2 -rank 3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
)

func main() {
	snapshot := flag.String("snapshot", "darshan_data.sos", "container snapshot to query")
	connect := flag.String("connect", "", "query a live dsosd over HTTP instead of a snapshot")
	index := flag.String("index", "job_rank_time", "index to order/search by")
	job := flag.Int64("job", -1, "filter: job id (on an index that starts with job_id)")
	rank := flag.Int64("rank", -1, "filter: rank within -job (job_rank_time only; ignored on other indices)")
	limit := flag.Int("limit", 0, "maximum rows (0 = all)")
	showSchemas := flag.Bool("schemas", false, "list schemas and exit")
	showIndices := flag.Bool("indices", false, "list indices and exit")
	flag.Parse()

	if *connect != "" {
		queryRemote(*connect, *index, *job, *rank, *limit)
		return
	}

	f, err := os.Open(*snapshot)
	if err != nil {
		fatal(err)
	}
	cont, err := sos.Restore(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *showSchemas {
		for _, s := range cont.Schemas() {
			fmt.Println(s)
		}
		return
	}
	if *showIndices {
		for _, ix := range cont.Indices() {
			fmt.Println(ix)
		}
		return
	}

	from, to, err := dsos.DarshanBounds(*index, flagValue(*job), flagValue(*rank))
	if err != nil {
		fatal(err)
	}
	cur, err := cont.Cursor(*index, from, to)
	if err != nil {
		fatal(err)
	}
	out := bufio.NewWriter(os.Stdout)
	out.WriteString(jsonmsg.CSVHeader + "\n")
	n := 0
	var row []byte
	for (*limit == 0 || n < *limit) && cur.Next() {
		row = append(dsos.AppendCSVRow(row[:0], cur.Object()), '\n')
		out.Write(row)
		n++
	}
	if err := out.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dsosql: %d rows\n", n)
}

// flagValue maps a -job/-rank flag to a filter: negative means not given.
func flagValue(v int64) *int64 {
	if v < 0 {
		return nil
	}
	return &v
}

// queryRemote runs the query against a dsosd HTTP endpoint and streams the
// CSV response to stdout.
func queryRemote(base, index string, job, rank int64, limit int) {
	q := url.Values{}
	q.Set("index", index)
	if job >= 0 {
		q.Set("job", fmt.Sprint(job))
	}
	if rank >= 0 {
		q.Set("rank", fmt.Sprint(rank))
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	resp, err := http.Get(base + "/query?" + q.Encode())
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fatal(fmt.Errorf("dsosd returned %s: %s", resp.Status, body))
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsosql:", err)
	os.Exit(1)
}
