package unused

func flagged() {}

func F() {
	flagged() //lint:allow flagcalls a trailing directive covers its own line
	//lint:allow flagcalls a leading directive covers the next line
	flagged()
	//lint:allow flagcalls nothing on the next line is flagged
	println()
	flagged() //lint:allow nosuchrule names a rule that did not run
}
