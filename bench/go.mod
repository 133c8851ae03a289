module github.com/septic-db/septic/bench

go 1.22

require github.com/septic-db/septic v0.0.0

replace github.com/septic-db/septic => ../
