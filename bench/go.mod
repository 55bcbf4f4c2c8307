module github.com/sgb-db/sgb/bench

go 1.21

require github.com/sgb-db/sgb v0.0.0

replace github.com/sgb-db/sgb => ../
