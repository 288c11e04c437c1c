let client_base = 1_000
let follower_base = 500
let replica i = i
let client c = client_base + c
let follower fid = follower_base + fid
let is_client addr = addr >= client_base
let is_follower addr = addr >= follower_base && addr < client_base
let client_of_addr addr = addr - client_base
let replica_of_addr addr = addr
