// Package apps models the four web applications of the paper: WaspMon
// (the §III demonstration scenario) and the three performance-study
// applications PHP Address Book, refbase and ZeroCMS (§II-F).
//
// Each application follows the paper's premise: "the programmer was
// careful and used PHP sanitization functions to check all inputs before
// inserting them in queries" — and is nevertheless vulnerable to the
// semantic-mismatch attack classes, because the sanitizers' byte-level
// semantics do not survive the DBMS's own decoding.
package apps

import (
	"errors"
	"fmt"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/webapp"
)

// WaspMonSchema returns the DDL and seed data for the energy-monitoring
// application (run it through the database before serving requests).
func WaspMonSchema() []string {
	return []string{
		`CREATE TABLE IF NOT EXISTS devices (
			id INT PRIMARY KEY AUTO_INCREMENT,
			name TEXT NOT NULL,
			location TEXT,
			maxWatts INT DEFAULT 0)`,
		`CREATE TABLE IF NOT EXISTS readings (
			id INT PRIMARY KEY AUTO_INCREMENT,
			device_id INT NOT NULL,
			ts INT NOT NULL,
			watts FLOAT NOT NULL)`,
		`CREATE TABLE IF NOT EXISTS wm_users (
			id INT PRIMARY KEY AUTO_INCREMENT,
			username TEXT NOT NULL,
			email TEXT,
			notes TEXT)`,
		`INSERT INTO devices (name, location, maxWatts) VALUES
			('heatpump', 'basement', 4000),
			('oven', 'kitchen', 3600),
			('ev-charger', 'garage', 11000)`,
		`INSERT INTO readings (device_id, ts, watts) VALUES
			(1, 100, 1200.5), (1, 200, 1350.0), (2, 150, 2200.0),
			(3, 300, 7300.0), (3, 400, 10100.0)`,
		`INSERT INTO wm_users (username, email, notes) VALUES
			('operator', 'op@example.com', 'day shift')`,
	}
}

// NewWaspMon builds the WaspMon application over db. Its handlers
// sanitize every entry point — with the PHP functions' real semantics —
// and build queries by string concatenation, the idiom under study.
func NewWaspMon(db webapp.Executor) *webapp.App {
	app := webapp.NewApp("waspmon", db)

	// GET /devices[?sort=] — list devices. The sort column is escaped and
	// concatenated into identifier context, where escaping is a no-op:
	// the classic ORDER BY injection surface. (The safe idiom is a
	// whitelist switch; this programmer skipped it.)
	app.Handle("/devices", func(c *webapp.Ctx) {
		sort := webapp.MySQLRealEscapeString(c.Param("sort"))
		if sort == "" {
			sort = "name"
		}
		res, err := c.Query("/* waspmon:devices */ SELECT id, name, location FROM devices ORDER BY " + sort)
		if err != nil {
			return
		}
		for _, row := range res.Rows {
			c.Writef("<li>%s (%s)</li>\n",
				webapp.HTMLSpecialChars(row[1].String()),
				webapp.HTMLSpecialChars(row[2].String()))
		}
	})

	// GET /device/view?name= — show one device. The name is escaped with
	// mysql_real_escape_string; a U+02BC payload survives it and becomes
	// a live quote inside the DBMS (first-order semantic mismatch).
	app.Handle("/device/view", func(c *webapp.Ctx) {
		name := webapp.MySQLRealEscapeString(c.Param("name"))
		res, err := c.Query("/* waspmon:device-view */ SELECT id, name, location, maxWatts FROM devices WHERE name = '" + name + "'")
		if err != nil {
			return
		}
		if len(res.Rows) == 0 {
			c.Write("device not found\n")
			return
		}
		for _, row := range res.Rows {
			c.Writef("device %s: %s @ %s, max %s W\n",
				row[0], webapp.HTMLSpecialChars(row[1].String()),
				webapp.HTMLSpecialChars(row[2].String()), row[3])
		}
	})

	// POST /device/add — create a device (sanitized INSERT).
	app.Handle("/device/add", func(c *webapp.Ctx) {
		name := webapp.MySQLRealEscapeString(c.Param("name"))
		location := webapp.MySQLRealEscapeString(c.Param("location"))
		maxW := c.Param("maxWatts")
		if !webapp.IsNumeric(maxW) {
			maxW = "0"
		}
		_, err := c.Query(fmt.Sprintf(
			"/* waspmon:device-add */ INSERT INTO devices (name, location, maxWatts) VALUES ('%s', '%s', %s)",
			name, location, maxW))
		if err != nil {
			return
		}
		c.Write("device added\n")
	})

	// GET /reading/history?device=&limit= — readings for one device.
	// The device id is escaped but concatenated into NUMERIC context —
	// escaping is a no-op there, the classic numeric-context injection.
	app.Handle("/reading/history", func(c *webapp.Ctx) {
		device := webapp.MySQLRealEscapeString(c.Param("device"))
		limit := c.Param("limit")
		if !webapp.IsNumeric(limit) {
			limit = "10"
		}
		res, err := c.Query(fmt.Sprintf(
			"/* waspmon:history */ SELECT ts, watts FROM readings WHERE device_id = %s ORDER BY ts DESC LIMIT %s",
			device, limit))
		if err != nil {
			return
		}
		for _, row := range res.Rows {
			c.Writef("t=%s %sW\n", row[0], row[1])
		}
	})

	// POST /reading/add — store a reading (numeric params validated with
	// is_numeric, the correct defence in numeric context).
	app.Handle("/reading/add", func(c *webapp.Ctx) {
		device := c.Param("device")
		ts := c.Param("ts")
		watts := c.Param("watts")
		if !webapp.IsNumeric(device) || !webapp.IsNumeric(ts) || !webapp.IsNumeric(watts) {
			c.Fail(400, errors.New("numeric parameters required"))
			return
		}
		if _, err := c.Query(fmt.Sprintf(
			"/* waspmon:reading-add */ INSERT INTO readings (device_id, ts, watts) VALUES (%s, %s, %s)",
			device, ts, watts)); err != nil {
			return
		}
		c.Write("reading stored\n")
	})

	// POST /user/register — create a user. Inputs escaped; the DBMS
	// stores the *unescaped* value (the lexer consumed the backslashes),
	// arming the second-order attack.
	app.Handle("/user/register", func(c *webapp.Ctx) {
		username := webapp.MySQLRealEscapeString(c.Param("username"))
		email := webapp.MySQLRealEscapeString(c.Param("email"))
		notes := webapp.MySQLRealEscapeString(c.Param("notes"))
		if _, err := c.Query(fmt.Sprintf(
			"/* waspmon:register */ INSERT INTO wm_users (username, email, notes) VALUES ('%s', '%s', '%s')",
			username, email, notes)); err != nil {
			return
		}
		c.Write("registered\n")
	})

	// POST /user/register2 — the "modernized" registration endpoint: it
	// uses a prepared statement, so the value travels beside the text and
	// bypasses the text pipeline entirely — including the DBMS charset
	// decode, exactly like MySQL's binary protocol. The write is safe;
	// the stored bytes are verbatim. (Which is how a confusable payload
	// survives storage and detonates on a later concatenated read.)
	app.Handle("/user/register2", func(c *webapp.Ctx) {
		if _, err := c.QueryArgs(
			"/* waspmon:register2 */ INSERT INTO wm_users (username, email, notes) VALUES (?, ?, ?)",
			engine.Str(c.Param("username")), engine.Str(c.Param("email")), engine.Str(c.Param("notes"))); err != nil {
			return
		}
		c.Write("registered (v2)\n")
	})

	// GET /user/profile?id= — show a user, then look up devices "owned"
	// by the username READ BACK FROM THE DATABASE. The programmer
	// trusted stored data and concatenated it without re-escaping: the
	// second-order injection sink (§II-D1 step 2).
	app.Handle("/user/profile", func(c *webapp.Ctx) {
		id := c.Param("id")
		if !webapp.IsNumeric(id) {
			c.Fail(400, errors.New("numeric id required"))
			return
		}
		res, err := c.Query("/* waspmon:profile */ SELECT username, email FROM wm_users WHERE id = " + id)
		if err != nil {
			return
		}
		if len(res.Rows) == 0 {
			c.Write("no such user\n")
			return
		}
		username := res.Rows[0][0].String() // stored data, NOT re-escaped
		res, err = c.Query("/* waspmon:profile-devices */ SELECT name FROM devices WHERE location = '" + username + "'")
		if err != nil {
			return
		}
		c.Writef("user has %d devices\n", len(res.Rows))
	})

	// POST /note/add?id=&notes= — update a user's notes. Quotes are
	// escaped but markup passes: the stored-XSS sink (the notes are
	// echoed by /note/view).
	app.Handle("/note/add", func(c *webapp.Ctx) {
		id := c.Param("id")
		if !webapp.IsNumeric(id) {
			c.Fail(400, errors.New("numeric id required"))
			return
		}
		notes := webapp.MySQLRealEscapeString(c.Param("notes"))
		if _, err := c.Query(fmt.Sprintf(
			"/* waspmon:note-add */ UPDATE wm_users SET notes = '%s' WHERE id = %s", notes, id)); err != nil {
			return
		}
		c.Write("notes saved\n")
	})

	// GET /note/view?id= — echo the stored notes verbatim (the vulnerable
	// output path stored XSS needs).
	app.Handle("/note/view", func(c *webapp.Ctx) {
		id := c.Param("id")
		if !webapp.IsNumeric(id) {
			c.Fail(400, errors.New("numeric id required"))
			return
		}
		res, err := c.Query("/* waspmon:note-view */ SELECT notes FROM wm_users WHERE id = " + id)
		if err != nil {
			return
		}
		for _, row := range res.Rows {
			c.Write(row[0].String()) // no output encoding: stored XSS fires here
			c.Write("\n")
		}
	})

	return app
}

// WaspMonTraining returns benign requests covering every WaspMon page —
// what the paper's septic training module (a crawler injecting benign
// inputs into forms) would generate.
func WaspMonTraining() []webapp.Request {
	return []webapp.Request{
		{Path: "/devices", Params: map[string]string{}},
		{Path: "/device/view", Params: map[string]string{"name": "heatpump"}},
		{Path: "/device/add", Params: map[string]string{"name": "fridge", "location": "kitchen", "maxWatts": "300"}},
		{Path: "/reading/history", Params: map[string]string{"device": "1", "limit": "5"}},
		{Path: "/reading/add", Params: map[string]string{"device": "2", "ts": "500", "watts": "900"}},
		{Path: "/user/register", Params: map[string]string{"username": "alice", "email": "a@example.com", "notes": "hi"}},
		{Path: "/user/register2", Params: map[string]string{"username": "bob", "email": "b@example.com", "notes": "hey"}},
		{Path: "/user/profile", Params: map[string]string{"id": "1"}},
		{Path: "/note/add", Params: map[string]string{"id": "1", "notes": "routine check"}},
		{Path: "/note/view", Params: map[string]string{"id": "1"}},
	}
}

// WaspMonWorkload returns the benign measurement workload (a plausible
// operator session).
func WaspMonWorkload() []webapp.Request {
	return []webapp.Request{
		{Path: "/devices", Params: map[string]string{}},
		{Path: "/device/view", Params: map[string]string{"name": "oven"}},
		{Path: "/reading/add", Params: map[string]string{"device": "1", "ts": "600", "watts": "1300"}},
		{Path: "/reading/history", Params: map[string]string{"device": "1", "limit": "10"}},
		{Path: "/device/view", Params: map[string]string{"name": "ev-charger"}},
		{Path: "/reading/history", Params: map[string]string{"device": "3", "limit": "3"}},
		{Path: "/note/view", Params: map[string]string{"id": "1"}},
		{Path: "/user/profile", Params: map[string]string{"id": "1"}},
	}
}
