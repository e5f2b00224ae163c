let parse_request line = Some line
